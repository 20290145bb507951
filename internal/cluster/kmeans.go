package cluster

import (
	"fmt"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/simrand"
)

// PruneMode selects the reassignment strategy of the K-means iterative
// phase. All modes produce bit-identical results — assignments, centers,
// iteration counts, and therefore Plan checksums — at every Parallelism
// setting; pruning only skips distance evaluations it can prove would not
// change the outcome (see prune.go for the exactness argument).
type PruneMode int

const (
	// PruneAuto is the default: Hamerly-style bounds pruning.
	PruneAuto PruneMode = iota
	// PruneNone disables pruning: every point scans every center each
	// round (the paper's literal Lloyd's iteration). The reference the
	// pruned paths are golden-tested against.
	PruneNone
	// PruneHamerly maintains one upper and one lower bound per point
	// (O(n) extra memory) and skips points whose bounds prove their
	// assignment cannot change.
	PruneHamerly
	// PruneElkan additionally maintains one lower bound per (point,
	// center) pair (O(n·k) extra memory), pruning individual centers
	// inside the scan. Worth it at large k; too memory-hungry for
	// million-point runs at high k, hence opt-in.
	PruneElkan
)

// String implements fmt.Stringer.
func (p PruneMode) String() string {
	switch p {
	case PruneAuto:
		return "auto"
	case PruneNone:
		return "none"
	case PruneHamerly:
		return "hamerly"
	case PruneElkan:
		return "elkan"
	default:
		return fmt.Sprintf("PruneMode(%d)", int(p))
	}
}

// Options tunes the K-means iteration (paper §3.3).
type Options struct {
	// MaxIterations bounds the iterative phase. Zero means the default (100).
	MaxIterations int
	// ReassignFrac is the termination threshold: iteration stops once the
	// fraction of points reassigned in a round is <= ReassignFrac. The paper
	// terminates when reassignments "become minimal"; the default is 0
	// (strict convergence).
	ReassignFrac float64
	// Parallelism bounds the worker pool for the assignment and
	// center-recomputation phases; 0 or 1 means serial. Results are
	// bit-identical across all settings: work is split into fixed index
	// chunks whose partial sums are reduced in chunk order, so the floating
	// point reduction tree never depends on the worker count.
	Parallelism int
	// Prune selects the reassignment strategy (default: Hamerly bounds
	// pruning). Every mode returns the exact same clustering — including
	// the lowest-index winner on distance ties — so the knob trades
	// distance evaluations for bound bookkeeping, never accuracy.
	Prune PruneMode
}

// DefaultOptions returns the options used in the experiments.
func DefaultOptions() Options {
	return Options{MaxIterations: 100, ReassignFrac: 0}
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.MaxIterations < 0 {
		return fmt.Errorf("cluster: MaxIterations must be >= 0, got %d", o.MaxIterations)
	}
	if o.ReassignFrac < 0 || o.ReassignFrac >= 1 {
		return fmt.Errorf("cluster: ReassignFrac must be in [0,1), got %v", o.ReassignFrac)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("cluster: Parallelism must be >= 0, got %d", o.Parallelism)
	}
	switch o.Prune {
	case PruneAuto, PruneNone, PruneHamerly, PruneElkan:
	default:
		return fmt.Errorf("cluster: unknown PruneMode %d", int(o.Prune))
	}
	return nil
}

// resolvePrune maps the option to a concrete mode.
func resolvePrune(p PruneMode) PruneMode {
	if p == PruneAuto {
		return PruneHamerly
	}
	return p
}

// Result describes a completed clustering.
type Result struct {
	// Assignments maps each point index to its cluster in [0,K).
	Assignments []int
	// Centers are the final cluster mean vectors. They are row views of
	// one flat backing array.
	Centers []Vector
	// Iterations is the number of iterative-phase rounds executed.
	Iterations int
	// Converged reports whether the termination condition was met before
	// MaxIterations.
	Converged bool
	// DistEvals counts the point-to-center distance evaluations performed
	// by the assignment phases (initial assignment plus every
	// reassignment round). It is the diffable measure of how much work
	// bounds pruning saved versus the exhaustive n·k-per-round sweep; the
	// large-N benchmarks report it as evals/op.
	DistEvals int64
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Centers) }

// Members returns the point indices of cluster c. Callers that need every
// cluster's members should use MembersAll, which builds the full inverse
// mapping in one pass instead of one scan per cluster.
func (r *Result) Members(c int) []int {
	var out []int
	for i, a := range r.Assignments {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}

// MembersAll returns the members of every cluster, indexed by cluster ID,
// in a single pass over the assignments (O(n+k), versus O(n·k) for calling
// Members in a loop). Empty clusters yield nil slices.
func (r *Result) MembersAll() [][]int {
	return membersAll(r.Assignments, len(r.Centers))
}

// membersAll builds the cluster -> member-indices inverse of assign.
func membersAll(assign []int, k int) [][]int {
	sizes := make([]int, k)
	for _, a := range assign {
		sizes[a]++
	}
	out := make([][]int, k)
	for c, s := range sizes {
		if s > 0 {
			out[c] = make([]int, 0, s)
		}
	}
	for i, a := range assign {
		out[a] = append(out[a], i)
	}
	return out
}

// Sizes returns the member count of every cluster.
func (r *Result) Sizes() []int {
	sizes := make([]int, len(r.Centers))
	for _, a := range r.Assignments {
		sizes[a]++
	}
	return sizes
}

// WithinClusterSS returns the total within-cluster sum of squared L2
// distances (the K-means objective).
func (r *Result) WithinClusterSS(points Matrix) float64 {
	var sum float64
	for i, a := range r.Assignments {
		sum += sqL2(points.Row(i), r.Centers[a])
	}
	return sum
}

// pointChunk is the fixed number of points per work chunk. It is a
// constant — never derived from the worker count — so the chunk-order
// reduction in recomputeCenters produces bit-identical centers for every
// Options.Parallelism setting.
const pointChunk = 64

// kmScratch holds the per-iteration working buffers of one KMeans call.
// Allocating them once (instead of per round) keeps the iterative phase
// allocation-free regardless of how many rounds run.
type kmScratch struct {
	k, dim      int
	mode        PruneMode   // resolved mode (never PruneAuto)
	points      Matrix      // the flat feature store being clustered
	centers     []float64   // flat k×dim center matrix (Result.Centers views it)
	chunkSums   [][]float64 // per chunk: flattened k×dim partial sums
	chunkCounts [][]int     // per chunk: per-cluster member counts
	moved       []int       // per chunk: reassignments in the last round
	evals       []int64     // per chunk: distance evaluations (cumulative)
	sums        []float64   // flattened k×dim chunk-order reduction target
	counts      []int       // per-cluster totals (also reused by repair)

	// Bounds-pruning state (see prune.go); nil in PruneNone mode.
	upper      []float64 // per point: upper bound on dist to assigned center
	lower      []float64 // per point: lower bound on dist to 2nd-closest center
	oldCenters []float64 // flat center snapshot from before recomputation
	drift      []float64 // per center: movement in the last recomputation
	sep        []float64 // per center: half the distance to its nearest peer
	halfCD     []float64 // Elkan only: flat k×k half inter-center distances
	lbAll      []float64 // Elkan only: flat n×k per-(point,center) lower bounds
	maxDrift   float64
}

func newKMScratch(points Matrix, k int, mode PruneMode) *kmScratch {
	n, dim := points.Rows(), points.Dim()
	nc := par.Chunks(n, pointChunk)
	sc := &kmScratch{
		k:           k,
		dim:         dim,
		mode:        mode,
		points:      points,
		centers:     make([]float64, k*dim),
		chunkSums:   make([][]float64, nc),
		chunkCounts: make([][]int, nc),
		moved:       make([]int, nc),
		evals:       make([]int64, nc),
		sums:        make([]float64, k*dim),
		counts:      make([]int, k),
	}
	for c := range sc.chunkSums {
		sc.chunkSums[c] = make([]float64, k*dim)
		sc.chunkCounts[c] = make([]int, k)
	}
	if mode != PruneNone {
		sc.upper = make([]float64, n)
		sc.lower = make([]float64, n)
		sc.oldCenters = make([]float64, k*dim)
		sc.drift = make([]float64, k)
		sc.sep = make([]float64, k)
	}
	if mode == PruneElkan {
		sc.halfCD = make([]float64, k*k)
		sc.lbAll = make([]float64, n*k)
	}
	return sc
}

// pointRow returns point i's flat row.
func (sc *kmScratch) pointRow(i int) []float64 { return sc.points.Row(i) }

// centerRow returns center c's flat row.
func (sc *kmScratch) centerRow(c int) []float64 {
	lo := c * sc.dim
	hi := lo + sc.dim
	return sc.centers[lo:hi:hi]
}

// oldCenterRow returns the pre-recomputation snapshot of center c.
func (sc *kmScratch) oldCenterRow(c int) []float64 {
	lo := c * sc.dim
	hi := lo + sc.dim
	return sc.oldCenters[lo:hi:hi]
}

// totalEvals sums the per-chunk distance-evaluation counters.
func (sc *kmScratch) totalEvals() int64 {
	var total int64
	for _, e := range sc.evals {
		total += e
	}
	return total
}

// KMeans partitions points into k clusters. The seeder picks the initial
// centers; src drives all randomness. The algorithm follows the paper's
// three phases: initialization (seed + nearest-center assignment),
// iteration (recompute means, reassign), and termination (when the number
// of reassignments becomes minimal).
//
// This is the []Vector-shaped adapter for callers outside the package: it
// copies the points into a flat Matrix once and runs KMeansMatrix.
func KMeans(points []Vector, k int, seeder Seeder, opts Options, src *simrand.Source) (*Result, error) {
	m, err := MatrixFromVectors(points)
	if err != nil {
		return nil, err
	}
	return KMeansMatrix(m, k, seeder, opts, src)
}

// KMeansMatrix is KMeans over a flat feature matrix — the
// million-cache-scale entry point. The assignment and center phases run on
// a worker pool bounded by opts.Parallelism, and the reassignment sweep
// prunes provably-unchanged points with triangle-inequality bounds
// (opts.Prune); the result is invariant to both knobs.
func KMeansMatrix(points Matrix, k int, seeder Seeder, opts Options, src *simrand.Source) (*Result, error) {
	if err := checkInput(points, k, seeder, opts); err != nil {
		return nil, err
	}
	n := points.Rows()
	opts = opts.withDefaults()
	mode := resolvePrune(opts.Prune)

	// Initialization phase.
	seedIdx, err := seedCenters(seeder, points, k, src)
	if err != nil {
		return nil, err
	}
	sc := newKMScratch(points, k, mode)
	centers := make([]Vector, k)
	for c := range centers {
		centers[c] = sc.centerRow(c)
	}
	for c, idx := range seedIdx {
		copy(sc.centerRow(c), points.Row(idx))
	}

	// Parallelism 0 means serial here (not the pool default): clustering is
	// frequently invoked from already-parallel sweep points, so spinning up
	// goroutines must be an explicit opt-in.
	workers := opts.Parallelism
	if workers == 0 {
		workers = 1
	}

	assign := make([]int, n)
	// Initial assignment: a full scan that doubles as bounds
	// initialization in the pruned modes.
	runSweep(sc, sweepAssign, assign, workers)

	// Iterative phase.
	res := &Result{Assignments: assign, Centers: centers}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if mode != PruneNone {
			copy(sc.oldCenters, sc.centers)
		}
		recomputeCenters(sc, assign, workers)
		repaired := repairEmptyClusters(sc, assign)
		var moved int
		if mode == PruneNone || repaired {
			// A repair moved points and rewrote a center mid-round, so
			// the maintained bounds no longer hold; re-initialize them
			// with a full sweep (which is exactly what the exhaustive
			// path runs every round).
			moved = reassignFull(sc, assign, workers)
		} else {
			moved = reassignPruned(sc, assign, workers)
		}
		res.Iterations = iter + 1
		// The termination threshold is a true fraction: int truncation would
		// turn e.g. ReassignFrac=0.01 at n=50 into strict convergence.
		if float64(moved)/float64(n) <= opts.ReassignFrac {
			res.Converged = true
			break
		}
	}
	// Final means must reflect the final assignment. A repair moves a point
	// between clusters, which stales the donor's (and recipient's) mean, so
	// iterate repair→recompute until no repair fires: Result.Centers must be
	// exactly the means of Result.Assignments.
	recomputeCenters(sc, assign, workers)
	for repairEmptyClusters(sc, assign) {
		recomputeCenters(sc, assign, workers)
	}
	res.DistEvals = sc.totalEvals()
	return res, nil
}

// checkInput validates the arguments KMeansMatrix and KMedoids share.
func checkInput(points Matrix, k int, seeder Seeder, opts Options) error {
	if err := validateMatrix(points); err != nil {
		return err
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if k < 1 {
		return fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if n := points.Rows(); k > n {
		return fmt.Errorf("cluster: k=%d exceeds number of points %d", k, n)
	}
	if seeder == nil {
		return fmt.Errorf("cluster: nil seeder")
	}
	return nil
}

// seedCenters runs the seeder and validates the returned indices.
func seedCenters(seeder Seeder, points Matrix, k int, src *simrand.Source) ([]int, error) {
	seedIdx, err := seeder.Seed(points, k, src)
	if err != nil {
		return nil, fmt.Errorf("seed centers: %w", err)
	}
	if len(seedIdx) != k {
		return nil, fmt.Errorf("cluster: seeder returned %d centers, want %d", len(seedIdx), k)
	}
	n := points.Rows()
	seen := make(map[int]bool, k)
	for _, idx := range seedIdx {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("cluster: seeder returned out-of-range index %d", idx)
		}
		if seen[idx] {
			return nil, fmt.Errorf("cluster: seeder returned duplicate index %d", idx)
		}
		seen[idx] = true
	}
	return seedIdx, nil
}

// sweepKind names the per-chunk body runSweep dispatches to. Dispatching
// on a plain value (rather than passing a closure) keeps the serial
// iterative path free of per-round closure allocations.
type sweepKind int

const (
	// sweepAssign fully scans every center per point; in pruned modes it
	// also (re)initializes the point bounds.
	sweepAssign sweepKind = iota
	// sweepPruned runs the mode-specific bounds-pruned reassignment.
	sweepPruned
	// sweepAccum accumulates per-chunk center sums and counts.
	sweepAccum
)

// sweepChunk runs one chunk of the given sweep kind.
func sweepChunk(sc *kmScratch, kind sweepKind, assign []int, chunk, lo, hi int) {
	switch kind {
	case sweepAssign:
		fullScanChunk(sc, assign, chunk, lo, hi)
	case sweepPruned:
		if sc.mode == PruneElkan {
			elkanChunk(sc, assign, chunk, lo, hi)
		} else {
			hamerlyChunk(sc, assign, chunk, lo, hi)
		}
	case sweepAccum:
		accumCenterChunk(sc, assign, chunk, lo, hi)
	}
}

// runSweep runs a sweep kind over the fixed point chunks. The serial path
// calls the chunk body directly — no closure, no goroutines — so a serial
// iteration round performs zero allocations.
func runSweep(sc *kmScratch, kind sweepKind, assign []int, workers int) {
	n := sc.points.Rows()
	if workers <= 1 {
		nc := par.Chunks(n, pointChunk)
		for c := 0; c < nc; c++ {
			lo, hi := par.ChunkBounds(n, pointChunk, c)
			sweepChunk(sc, kind, assign, c, lo, hi)
		}
		return
	}
	par.ForEachChunk(n, pointChunk, workers, func(chunk, lo, hi int) {
		sweepChunk(sc, kind, assign, chunk, lo, hi)
	})
}

// movedTotal sums the per-chunk reassignment counts of the last sweep.
func movedTotal(sc *kmScratch) int {
	total := 0
	for _, m := range sc.moved {
		total += m
	}
	return total
}

// reassignFull moves every point to its nearest center with a full scan
// (re-initializing the pruning bounds as a side effect in pruned modes)
// and returns the number of reassignments.
func reassignFull(sc *kmScratch, assign []int, workers int) int {
	runSweep(sc, sweepAssign, assign, workers)
	return movedTotal(sc)
}

// reassignPruned runs one bounds-pruned reassignment round: update the
// center drifts and separations, then sweep the chunks with the
// mode-specific pruning body.
func reassignPruned(sc *kmScratch, assign []int, workers int) int {
	updateDrift(sc)
	updateSeparation(sc)
	runSweep(sc, sweepPruned, assign, workers)
	return movedTotal(sc)
}

// recomputeCenters sets each center to the mean of its members. Centers of
// empty clusters are left untouched (repairEmptyClusters handles them).
// Per-chunk partial sums are accumulated in parallel and reduced in chunk
// order, so the result is bit-identical for every worker count.
func recomputeCenters(sc *kmScratch, assign []int, workers int) {
	runSweep(sc, sweepAccum, assign, workers)
	sums, counts := sc.sums, sc.counts
	for i := range sums {
		sums[i] = 0
	}
	for i := range counts {
		counts[i] = 0
	}
	for c := range sc.chunkSums {
		for i, v := range sc.chunkSums[c] {
			sums[i] += v
		}
		for i, v := range sc.chunkCounts[c] {
			counts[i] += v
		}
	}
	dim := sc.dim
	for c := 0; c < sc.k; c++ {
		if counts[c] == 0 {
			continue
		}
		row := sc.centerRow(c)
		inv := 1 / float64(counts[c])
		for j := 0; j < dim; j++ {
			row[j] = sums[c*dim+j] * inv
		}
	}
}

// accumCenterChunk zeroes and fills one chunk's partial sums and counts.
func accumCenterChunk(sc *kmScratch, assign []int, chunk, lo, hi int) {
	dim := sc.dim
	sums := sc.chunkSums[chunk]
	counts := sc.chunkCounts[chunk]
	for i := range sums {
		sums[i] = 0
	}
	for i := range counts {
		counts[i] = 0
	}
	for i := lo; i < hi; i++ {
		a := assign[i]
		counts[a]++
		row := sums[a*dim : (a+1)*dim]
		for j, x := range sc.pointRow(i) {
			row[j] += x
		}
	}
}

// repairEmptyClusters re-seeds any empty cluster at the point currently
// farthest from its assigned center, stealing it from a cluster with more
// than one member. This keeps all K groups non-degenerate, which the group
// formation problem requires (K disjoint non-empty groups). It reports
// whether any assignment changed, so callers can recompute the affected
// means (and, in pruned modes, re-initialize the now-invalid bounds).
func repairEmptyClusters(sc *kmScratch, assign []int) bool {
	k := sc.k
	counts := sc.counts
	for c := range counts {
		counts[c] = 0
	}
	for _, a := range assign {
		counts[a]++
	}
	repaired := false
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		// Farthest point whose cluster can spare it.
		best := -1
		var bestD float64
		for i, a := range assign {
			if counts[a] <= 1 {
				continue
			}
			if d := sqL2(sc.pointRow(i), sc.centerRow(a)); best < 0 || d > bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			continue // cannot repair (k == n with duplicates); leave empty
		}
		counts[assign[best]]--
		assign[best] = c
		counts[c] = 1
		copy(sc.centerRow(c), sc.pointRow(best))
		repaired = true
	}
	return repaired
}
