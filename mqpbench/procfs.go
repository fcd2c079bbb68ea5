package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. The
// kernel fixes it at 100 for that interface whatever its internal HZ.
const clockTicks = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (uint64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: stat without command name")
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat has %d fields after the name", len(f))
	}
	ut, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	st, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return ut + st, nil
}

// parseField returns the integer after "key:" in a /proc key-value file such
// as status ("VmHWM:\t  1234 kB") or io ("rchar: 5678").
func parseField(b []byte, key string) (int64, error) {
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) == 0 {
			return 0, fmt.Errorf("procfs: %s has no value", key)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("procfs: no %s field", key)
}

// cpuMS reads a process's user plus system CPU time in milliseconds; pid is
// a number or "self".
func cpuMS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	t, err := parseStatCPU(b)
	if err != nil {
		return 0, err
	}
	return float64(t) * 1000 / clockTicks, nil
}

// procField reads one field of /proc/<pid>/<file> (status or io).
func procField(pid, file, key string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/" + file)
	if err != nil {
		return 0, err
	}
	return parseField(b, key)
}
