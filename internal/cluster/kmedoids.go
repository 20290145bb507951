package cluster

import (
	"edgecachegroups/internal/simrand"
)

// KMedoids partitions points into k clusters around medoids (actual
// points) using a Voronoi-iteration PAM variant: assign every point to its
// nearest medoid, then move each medoid to the member of its cluster that
// minimizes the total within-cluster distance, until stable.
//
// The paper notes that "any standard clustering algorithm may be similarly
// modified" for the SDSL seeding rule; K-medoids is the natural second
// choice because its centers are real caches (useful when a group needs a
// distinguished coordinator node). The same Seeder abstraction applies:
// the SDSL WeightedSeeder biases the initial medoids toward the origin.
//
// The returned Result is shaped like KMeans's: Centers hold the medoid
// coordinates (copies of input points). The medoid swap phase is
// inherently O(n²) per cluster, so opts.Parallelism and opts.Prune do not
// apply.
func KMedoids(points Matrix, k int, seeder Seeder, opts Options, src *simrand.Source) (*Result, error) {
	if err := checkInput(points, k, seeder, opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	medoids, err := seedCenters(seeder, points, k, src)
	if err != nil {
		return nil, err
	}

	n := points.Rows()
	assign := make([]int, n)
	assignAll := func() int {
		moved := 0
		for i := range assign {
			p := points.Row(i)
			best := 0
			bestD := sqL2(p, points.Row(medoids[0]))
			for c := 1; c < k; c++ {
				if d := sqL2(p, points.Row(medoids[c])); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				moved++
			}
		}
		return moved
	}
	// Initial assignment (count everything as moved).
	for i := range assign {
		assign[i] = -1
	}
	assignAll()

	res := &Result{Assignments: assign}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		// Update step: each medoid becomes the member minimizing the total
		// distance to its cluster. One membersAll pass builds every cluster's
		// member list at once (O(n+k) instead of O(n·k) scans).
		allMembers := membersAll(assign, k)
		changed := false
		for c := 0; c < k; c++ {
			members := allMembers[c]
			if len(members) == 0 {
				continue
			}
			best := medoids[c]
			bestCost := clusterCost(points, members, best)
			for _, cand := range members {
				if cand == best {
					continue
				}
				if cost := clusterCost(points, members, cand); cost < bestCost {
					best, bestCost = cand, cost
				}
			}
			if best != medoids[c] {
				medoids[c] = best
				changed = true
			}
		}
		moved := assignAll()
		res.Iterations = iter + 1
		// True-fraction threshold, matching KMeans (int truncation would
		// silently tighten the documented ReassignFrac semantics).
		if !changed && float64(moved)/float64(n) <= opts.ReassignFrac {
			res.Converged = true
			break
		}
	}

	// The centers are the medoid rows in one flat array, repaired the same
	// way KMeans repairs: repairEmptyClusters reads only these fields.
	dim := points.Dim()
	sc := &kmScratch{k: k, dim: dim, points: points, centers: make([]float64, k*dim), counts: make([]int, k)}
	res.Centers = make([]Vector, k)
	for c, m := range medoids {
		res.Centers[c] = sc.centerRow(c)
		copy(res.Centers[c], points.Row(m))
	}
	repairEmptyClusters(sc, assign)
	return res, nil
}

// clusterCost is the total L2 distance from candidate medoid cand to the
// members.
func clusterCost(points Matrix, members []int, cand int) float64 {
	c := points.Row(cand)
	var sum float64
	for _, m := range members {
		sum += L2(points.Row(m), c)
	}
	return sum
}
