package netsim

import (
	"fmt"
	"slices"
	"testing"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// starNetwork builds an origin with n caches hanging off it. Cache c sits
// 1 + (7c mod 5) ms from the origin, so the RTT between two caches is the
// sum of their spokes and nearest-holder ties are common.
func starNetwork(t *testing.T, n int) *topology.Network {
	t.Helper()
	g := topology.NewGraph()
	o := g.AddNode(topology.KindStub, 0)
	caches := make([]topology.NodeID, n)
	for c := range caches {
		caches[c] = g.AddNode(topology.KindStub, 0)
		if err := g.AddEdge(o, caches[c], float64(1+(7*c)%5)); err != nil {
			t.Fatal(err)
		}
	}
	nw, err := topology.NewNetworkAt(g, o, caches)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// directoryCase is one decoded FuzzHolderDirectory input.
type directoryCase struct {
	numCaches, numDocs int
	groups             [][]topology.CacheIndex
	failed             []topology.CacheIndex
	capacityKB         float64
	reqs               []workload.Request
	ups                []workload.Update
}

// decodeDirectoryCase reads a 6-byte header, then the logs (see decodeLogs):
//
//	[0] caches: 1 + b%160, so groups can span up to three 64-bit words
//	[1] groups: 1 + b%min(caches, 16)
//	[2] partition seed: the caches are shuffled and cut into the groups at
//	    random points, so members are not in index order and group bounds
//	    fall anywhere in a word; the top bit adds an empty group
//	[3] failures: each cache is down with probability (b%4)/8
//	[4] capacity: 5 + b%56 KB of 10 KB documents, so below 10 KB every
//	    insert fails and near it every insert evicts
//	[5] documents: 1 + b%8
func decodeDirectoryCase(data []byte) (directoryCase, bool) {
	if len(data) < 6 {
		return directoryCase{}, false
	}
	dc := directoryCase{
		numCaches:  1 + int(data[0])%160,
		capacityKB: float64(5 + int(data[4])%56),
		numDocs:    1 + int(data[5])%8,
	}
	numGroups := 1 + int(data[1])%min(dc.numCaches, 16)
	src := simrand.New(int64(data[2]))
	perm := src.Perm(dc.numCaches)
	cuts, err := src.SampleWithoutReplacement(dc.numCaches-1, numGroups-1)
	if err != nil {
		return directoryCase{}, false
	}
	for k := range cuts {
		cuts[k]++
	}
	slices.Sort(cuts)
	cuts = append(cuts, dc.numCaches)
	lo := 0
	for _, hi := range cuts {
		var members []topology.CacheIndex
		for _, c := range perm[lo:hi] {
			members = append(members, topology.CacheIndex(c))
		}
		dc.groups = append(dc.groups, members)
		lo = hi
	}
	if data[2]&0x80 != 0 {
		dc.groups = slices.Insert(dc.groups, src.Intn(len(dc.groups)+1), nil)
	}
	p := float64(data[3]%4) / 8
	for c := 0; c < dc.numCaches; c++ {
		if src.Bernoulli(p) {
			dc.failed = append(dc.failed, topology.CacheIndex(c))
		}
	}
	dc.reqs, dc.ups = decodeLogs(data[6:], dc.numCaches, dc.numDocs)
	return dc, true
}

// holdsBit reports whether the directory records cache c as a fresh holder
// of doc.
func (h *holderDir) holdsBit(doc workload.DocID, c topology.CacheIndex) bool {
	b := h.bit[int(c)]
	return h.row(doc)[b>>6]>>(b&63)&1 != 0
}

// checkHolderDirectory compares a shard's directory with the caches it
// indexes for doc as requested at cache i, one of the shard's caches: the
// group holders must equal a Contains scan over s.peers[i], in that order,
// and every one of the shard's caches must have its bit say whether it
// holds the shard's current version. Under push invalidation no cache may
// hold a stale copy, which pushInvalidate relies on. It runs on the
// shard's goroutine, so it returns the first mismatch instead of failing
// the test.
func checkHolderDirectory(sh *shard, i topology.CacheIndex, doc workload.DocID) error {
	s := sh.s
	cur := sh.version[int(doc)]
	if !s.failed[int(i)] {
		var want []topology.CacheIndex
		for _, p := range s.peers[int(i)] {
			if s.caches[int(p)].Contains(doc, cur) {
				want = append(want, p)
			}
		}
		if got := sh.groupHolders(i, doc); !slices.Equal(got, want) {
			return fmt.Errorf("cache %d doc %d: directory holders %v, peer scan %v", i, doc, got, want)
		}
	}
	for _, c := range sh.dir.cache {
		ec := s.caches[int(c)]
		fresh := ec.Contains(doc, cur)
		if got := sh.dir.holdsBit(doc, c); got != fresh {
			return fmt.Errorf("doc %d cache %d: directory bit %v, cache holds current version %v", doc, c, got, fresh)
		}
		if _, held := ec.Utility(doc, 0); s.cfg.PushInvalidation && held && !fresh {
			return fmt.Errorf("doc %d cache %d: stale copy under push invalidation", doc, c)
		}
	}
	return nil
}

// FuzzHolderDirectory checks the holder directory against the caches it
// indexes. At every request, the group holders the requester's shard
// returns must equal a Contains scan over the requester's live peers, in
// peers order, and every directory bit of that shard must match its
// store; after the run every shard's whole table must. Partitions have
// groups of more than 64 members and groups that straddle word
// boundaries, members out of index order, empty groups and failed caches;
// small capacities force evictions and failed inserts. Every input runs
// on two shards, with and without beacons and push invalidation.
//
// Fuzz it with -fuzzminimizetime capped, as CI's fuzz-smoke step does (2s).
// Each input builds and runs four simulators and checks the directory at
// every request, so the default 60 s minimization of each new interesting
// input takes the whole run: from an empty fuzz cache, 15 s on 2 vCPUs
// made 10-11 execs uncapped and 2,000-4,000 with the cap.
func FuzzHolderDirectory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dc, ok := decodeDirectoryCase(data)
		if !ok {
			return
		}
		nw := starNetwork(t, dc.numCaches)
		cat := fixedCatalog(t, dc.numDocs)
		for _, beacons := range []int{0, 2} {
			for _, push := range []bool{false, true} {
				cfg := exactConfig()
				cfg.CacheCapacityKB = dc.capacityKB
				cfg.FailedCaches = dc.failed
				cfg.BeaconsPerGroup = beacons
				cfg.PushInvalidation = push
				cfg.Verify = true
				sim, err := New(nw, dc.groups, cat, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim.shardCount = 2
				// Each shard writes only its own slots.
				shards := make([]*shard, sim.numShards())
				errs := make([]error, len(shards))
				sim.inspect = func(sh *shard, ev event) {
					shards[sh.id] = sh
					if errs[sh.id] == nil {
						errs[sh.id] = checkHolderDirectory(sh, ev.cache, ev.doc)
					}
				}
				if _, err := sim.Run(dc.reqs, dc.ups); err != nil {
					continue
				}
				for k, sh := range shards {
					if errs[k] != nil {
						t.Fatalf("beacons=%d push=%v shard %d: %v", beacons, push, k, errs[k])
					}
					if sh == nil {
						continue
					}
					for d := 0; d < dc.numDocs; d++ {
						for _, c := range sh.dir.cache {
							if err := checkHolderDirectory(sh, c, workload.DocID(d)); err != nil {
								t.Fatalf("beacons=%d push=%v shard %d after the run: %v", beacons, push, k, err)
							}
						}
					}
				}
			}
		}
	})
}
