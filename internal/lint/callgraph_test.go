package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildProgram loads patterns and constructs the interprocedural engine
// the way Run does.
func buildProgram(t *testing.T, root string, patterns ...string) *program {
	t.Helper()
	pkgs, err := Load(root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded for %v", patterns)
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	return newProgram(pkgs, newSuppressions(pkgs, known))
}

// findNode resolves the unique graph node whose full name has suffix.
func findNode(t *testing.T, p *program, suffix string) *funcNode {
	t.Helper()
	var hit *funcNode
	for fn, n := range p.funcs {
		if strings.HasSuffix(fn.FullName(), suffix) {
			if hit != nil {
				t.Fatalf("suffix %q is ambiguous (%s and %s)", suffix, hit.fn.FullName(), fn.FullName())
			}
			hit = n
		}
	}
	if hit == nil {
		t.Fatalf("no function matching %q in the graph", suffix)
	}
	return hit
}

func testCwd(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return cwd
}

// TestCallGraphInterfaceDispatch pins implements-based dispatch: a call
// through the fixture's ringer interface must produce edges to every
// concrete Ring method that implements ringer, and none to a Ring
// method of another signature.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	p := buildProgram(t, testCwd(t), "testdata/src/callgraph")
	n := findNode(t, p, "callgraph.dispatchThrough")
	var callees []string
	for _, e := range n.edges {
		callees = append(callees, e.callee.fn.FullName())
	}
	for _, want := range []string{"bell).Ring", "silent).Ring"} {
		found := false
		for _, c := range callees {
			if strings.HasSuffix(c, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("dispatchThrough edges %v missing concrete method %q", callees, want)
		}
	}
	for _, c := range callees {
		if strings.HasSuffix(c, "counter).Ring") {
			t.Errorf("dispatchThrough has an edge to %s, whose signature does not match ringer", c)
		}
	}
	if got := len(p.methodsByName["Ring"]); got != 3 {
		t.Errorf("methodsByName[Ring] has %d entries, want 3", got)
	}
}

// TestCallGraphRecursionCycles checks the fixpoint converges on cycles:
// a pure mutual recursion stays fact-free, and a cycle with one
// blocking base fact taints every member.
func TestCallGraphRecursionCycles(t *testing.T) {
	p := buildProgram(t, testCwd(t), "testdata/src/callgraph")
	for _, name := range []string{"callgraph.even", "callgraph.odd"} {
		n := findNode(t, p, name)
		if n.summary.blocks || n.summary.wallClock || n.summary.spawnsGoroutine {
			t.Errorf("%s: pure recursion picked up facts %+v", name, n.summary)
		}
	}
	for _, name := range []string{"callgraph.evenBlocking", "callgraph.oddBlocking"} {
		if n := findNode(t, p, name); !n.summary.blocks {
			t.Errorf("%s: blocking fact did not propagate around the cycle", name)
		}
	}
}

// TestCallGraphMutatesParameter pins the caller-visible-write analysis
// and its transitive propagation through argument passing.
func TestCallGraphMutatesParameter(t *testing.T) {
	p := buildProgram(t, testCwd(t), "testdata/src/callgraph")
	if n := findNode(t, p, "callgraph.setFirst"); !n.mutatesArg(0) {
		t.Error("setFirst: direct slice-element write not recorded")
	}
	if n := findNode(t, p, "callgraph.passThrough"); !n.mutatesArg(0) {
		t.Error("passThrough: transitive mutation not propagated")
	}
	if n := findNode(t, p, "callgraph.reassign"); n.mutatesArg(0) {
		t.Error("reassign: rebinding the parameter variable is not a caller-visible write")
	}
	if n := findNode(t, p, "bell).Ring"); !n.mutatesArg(0) {
		t.Error("(*bell).Ring: receiver field write not recorded at position 0")
	}
}

// TestCallGraphTransitiveSummaries pins wall-clock and blocking taint
// across package boundaries, with deterministic witness chains.
func TestCallGraphTransitiveSummaries(t *testing.T) {
	p := buildProgram(t, testCwd(t), "testdata/src/transitive/...")
	hidden := findNode(t, p, "clockutil.HiddenNow")
	if !hidden.summary.wallClock || hidden.summary.wallVia != "time.Now" {
		t.Errorf("HiddenNow summary = %+v, want direct time.Now taint", hidden.summary)
	}
	indirect := findNode(t, p, "clockutil.Indirect")
	if !indirect.summary.wallClock {
		t.Error("Indirect: wall-clock taint did not cross one frame")
	}
	if w := p.wallWitness(indirect); w != "clockutil.HiddenNow → time.Now" {
		t.Errorf("Indirect witness = %q", w)
	}
	if n := findNode(t, p, "blockutil.Drain"); !n.summary.blocks {
		t.Error("Drain: channel receive not a blocking base fact")
	}
	deep := findNode(t, p, "blockutil.DrainDeep")
	if !deep.summary.blocks {
		t.Error("DrainDeep: blocking taint did not cross one frame")
	}
	if w := p.blockWitness(deep); w != "blockutil.Drain → channel receive" {
		t.Errorf("DrainDeep witness = %q", w)
	}
	if n := findNode(t, p, "blockutil.Poll"); n.summary.blocks {
		t.Error("Poll: select with default must not count as blocking")
	}
}

// TestCallGraphGenericDispatch pins dispatch to a method of a generic
// type whose signature mentions its type parameter: func (Box[T]) Get() T
// implements getter only as Box[int64], which the fixture instantiates, so
// the call through getter must reach it and detclock must flag the
// wall-clock read behind it.
func TestCallGraphGenericDispatch(t *testing.T) {
	p := buildProgram(t, testCwd(t), "testdata/src/transitive/...")
	get := findNode(t, p, "Box[T]).Get")
	found := false
	for _, e := range findNode(t, p, "transitive.getterStamp").edges {
		found = found || e.callee == get
	}
	if !found {
		t.Fatal("getterStamp has no edge to (clockutil.Box[T]).Get")
	}
	var flagged bool
	for _, f := range Run(p.pkgs, []Analyzer{DetClock{}}) {
		if strings.HasSuffix(f.Pos.Filename, "transitive.go") &&
			strings.Contains(f.Message, "(clockutil.Box[T]).Get reaches time.Now") {
			flagged = true
		}
	}
	if !flagged {
		t.Error("detclock does not flag the wall-clock read behind getter.Get")
	}
}

// TestCallGraphRepoInterfaceDispatch runs dispatch over real repo
// concrete types: calls through protocol.Transport must resolve to
// (*ChanTransport).Send.
func TestCallGraphRepoInterfaceDispatch(t *testing.T) {
	root := filepath.Join(testCwd(t), "..", "..")
	p := buildProgram(t, root, "./internal/protocol")
	concrete := findNode(t, p, "ChanTransport).Send")
	found := false
	for _, n := range p.nodes {
		if n == concrete {
			continue
		}
		for _, e := range n.edges {
			if e.callee == concrete {
				found = true
			}
		}
	}
	if !found {
		t.Error("no caller dispatches to (*ChanTransport).Send through the Transport interface")
	}
}
