package main

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/xmltree"
)

// replayPasses is how many times the codec replay runs over the captured
// bodies; the per-hop figures are totals over all passes divided by the
// calls made.
const replayPasses = 10

// sink keeps the replayed calls' results live.
var sink any

// codecReplay re-runs the codec stages of one hop on the serialized bodies
// captured during the traced window: zero-copy decode, plan unmarshal, tree
// marshal, and the streaming frame encode the TCP path uses.
func codecReplay(strs []string, m *metricSet) error {
	var kb float64
	for _, s := range strs {
		kb += float64(len(s)) / 1024
	}
	docs := make([]*xmltree.Node, len(strs))
	t0 := time.Now()
	for p := 0; p < replayPasses; p++ {
		for i, s := range strs {
			d, err := xmltree.DecodeString(s)
			if err != nil {
				return err
			}
			docs[i] = d
		}
	}
	decode := time.Since(t0)

	plans := make([]*algebra.Plan, len(docs))
	t0 = time.Now()
	for p := 0; p < replayPasses; p++ {
		for i, d := range docs {
			pl, err := algebra.Unmarshal(d)
			if err != nil {
				return err
			}
			plans[i] = pl
		}
	}
	unmarshal := time.Since(t0)

	t0 = time.Now()
	for p := 0; p < replayPasses; p++ {
		for _, pl := range plans {
			sink = algebra.Marshal(pl)
		}
	}
	marshal := time.Since(t0)

	enc := xmltree.NewFrameEncoder()
	t0 = time.Now()
	for p := 0; p < replayPasses; p++ {
		for _, pl := range plans {
			enc.Reset()
			algebra.EncodeFrame(pl, enc)
		}
	}
	encode := time.Since(t0)
	sink = enc

	calls := float64(replayPasses * len(strs))
	perHop := func(d time.Duration) float64 { return ratio(float64(d)/1e3, calls) }
	m.add("xmltree.decode_us_per_hop", perHop(decode), "us")
	m.add("algebra.unmarshal_us_per_hop", perHop(unmarshal), "us")
	m.add("algebra.marshal_us_per_hop", perHop(marshal), "us")
	m.add("algebra.encode_frame_us_per_hop", perHop(encode), "us")
	m.add("xmltree.kb_per_hop", ratio(kb, float64(len(strs))), "KiB")
	return nil
}
