package netsim

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// decodeLogs turns fuzz bytes into a request log and an update log over
// numCaches caches and numDocs documents. Each 3-byte record is
// (kind|time, cache, doc): the top bit of the first byte marks an update,
// and its low five bits give a time on a quarter-second grid, so equal
// times are common. Byte values 0xff and 0xfe map to out-of-range caches
// and documents.
func decodeLogs(data []byte, numCaches, numDocs int) ([]workload.Request, []workload.Update) {
	index := func(b byte, n int) int {
		switch b {
		case 0xff:
			return -1
		case 0xfe:
			return n
		}
		return int(b) % n
	}
	var reqs []workload.Request
	var ups []workload.Update
	for ; len(data) >= 3; data = data[3:] {
		t := float64(data[0]&0x1f) / 4
		doc := workload.DocID(index(data[2], numDocs))
		if data[0]&0x80 != 0 {
			ups = append(ups, workload.Update{TimeSec: t, Doc: doc})
			continue
		}
		reqs = append(reqs, workload.Request{TimeSec: t, Cache: topology.CacheIndex(index(data[1], numCaches)), Doc: doc})
	}
	return reqs, ups
}

// FuzzRunSortInvariant checks the event loop against its ordering contract.
// Whatever logs Run accepts must give a Report that passes Verify, and a
// stable time-sort of both logs must give the same Report checksum: ties
// keep their log order, so the events run in the same order either way.
// Every input runs with and without beacons and push invalidation.
func FuzzRunSortInvariant(f *testing.F) {
	f.Add([]byte{4, 0, 0, 4, 1, 0, 0x84, 0, 0, 4, 1, 0, 8, 0, 1})
	f.Add([]byte{12, 1, 2, 4, 0, 2, 0x88, 0, 2, 4, 1, 3, 0x84, 0, 3, 0, 0, 1})
	f.Add([]byte{4, 0xfe, 0, 0x84, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		const numDocs = 4
		nw := lineNetwork(t)
		cat := fixedCatalog(t, numDocs)
		reqs, ups := decodeLogs(data, 2, numDocs)
		sortedReqs := slices.Clone(reqs)
		slices.SortStableFunc(sortedReqs, func(a, b workload.Request) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
		sortedUps := slices.Clone(ups)
		slices.SortStableFunc(sortedUps, func(a, b workload.Update) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
		for _, beacons := range []int{0, 1} {
			for _, push := range []bool{false, true} {
				cfg := exactConfig()
				cfg.CacheCapacityKB = 25 // two 10 KB documents: evictions are common
				cfg.BeaconsPerGroup = beacons
				cfg.PushInvalidation = push
				cfg.Verify = true
				run := func(reqs []workload.Request, ups []workload.Update) (*Report, error) {
					sim, err := New(nw, oneGroup(), cat, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return sim.Run(reqs, ups)
				}
				rep, err := run(reqs, ups)
				sorted, sortedErr := run(sortedReqs, sortedUps)
				if (err == nil) != (sortedErr == nil) {
					t.Fatalf("beacons=%d push=%v: log error %v, sorted log error %v", beacons, push, err, sortedErr)
				}
				if err != nil {
					continue
				}
				if err := rep.Verify(reqs, ups); err != nil {
					t.Fatalf("beacons=%d push=%v: %v", beacons, push, err)
				}
				if got, want := sorted.Checksum(), rep.Checksum(); got != want {
					t.Fatalf("beacons=%d push=%v: sorted log checksum %016x, log checksum %016x", beacons, push, got, want)
				}
			}
		}
	})
}

// FuzzTraceReplay feeds JSONL trace files through the readers cmd/cachesim
// uses on cmd/tracegen output (workload.ReadRequestsJSONL and
// ReadUpdatesJSONL) into New and Run on the two-cache line network. Whatever the bytes, the
// replay must end in an error or in a Report that passes Verify, never in
// a panic. The committed corpus holds a valid mixed trace, unsorted times
// with ties, out-of-range caches and documents, a negative time, a NaN
// given as a string, a torn last line and empty logs.
func FuzzTraceReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, reqData, upData []byte) {
		reqs, err := workload.ReadRequestsJSONL(bytes.NewReader(reqData))
		if err != nil {
			return
		}
		ups, err := workload.ReadUpdatesJSONL(bytes.NewReader(upData))
		if err != nil {
			return
		}
		const numDocs = 4
		nw := lineNetwork(t)
		cat := fixedCatalog(t, numDocs)
		for _, push := range []bool{false, true} {
			cfg := exactConfig()
			cfg.CacheCapacityKB = 25
			cfg.PushInvalidation = push
			cfg.Verify = true
			sim, err := New(nw, oneGroup(), cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.Run(reqs, ups)
			if err != nil {
				continue
			}
			if err := rep.Verify(reqs, ups); err != nil {
				t.Fatalf("push=%v: %v", push, err)
			}
		}
	})
}
