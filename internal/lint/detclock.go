package lint

import (
	"go/ast"
	"go/types"
)

// DetClock flags wall-clock reads and sleeps inside simulation
// packages. Simulated time must come from the event loop (netsim's
// virtual clock) or be threaded in explicitly; a time.Now or time.Sleep
// in these packages makes results depend on host speed and scheduling,
// which breaks same-seed bit-identical checksums.
//
// The only sanctioned exception is the distributed coordinator's
// RoundBudget path, which deliberately bounds a round by wall time and
// carries //ecglint:allow detclock annotations.
type DetClock struct{}

// simPackages are the packages whose behaviour must be a pure function
// of (inputs, seed). Matching is by final import-path segment and by
// package name, so the testdata fixtures (whose synthetic import paths
// end in the fixture directory name) are classified by their package
// clause like real packages are.
var simPackages = map[string]bool{
	"netsim":      true,
	"cluster":     true,
	"gnp":         true,
	"probe":       true,
	"core":        true,
	"experiments": true,
	"workload":    true,
	"topology":    true,
	"protocol":    true,
	"landmark":    true,
	"vivaldi":     true,
	"simrand":     true,
	"cache":       true,
	"metrics":     true,
	// obs is deliberately absent: its stage spans and HTTP exposition
	// read the wall clock, but the sink is a pure side channel —
	// simulation packages hand it virtual timestamps and never read
	// anything back from it.
}

// bannedClock are the time-package functions that read the wall clock,
// sleep, or start wall-clock timers.
var bannedClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func (DetClock) Name() string { return "detclock" }

func (DetClock) Doc() string {
	return "no time.Now/Since/Sleep/After in simulation packages; simulated time only"
}

func (DetClock) Run(pkg *Package) []Finding {
	if !simPackages[pathTail(pkg.Path)] && !simPackages[pkg.Types.Name()] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !bannedClock[sel.Sel.Name] {
				return true
			}
			if !isPackage(pkg, sel.X, "time") {
				return true
			}
			out = append(out, Finding{
				Pos:     pkg.Fset.Position(sel.Pos()),
				Rule:    "detclock",
				Message: "time." + sel.Sel.Name + " in simulation package " + pkg.Types.Name() + "; use simulated time (or annotate a sanctioned wall-clock path)",
			})
			return true
		})
	}
	out = append(out, detClockTransitive(pkg)...)
	return out
}

// detClockTransitive flags calls from this simulation package into
// helpers — however many frames deep — that reach the wall clock. Only
// edges crossing into non-simulation packages are reported: a tainted
// callee inside a simulation package carries its own finding at the
// offending site, so reporting the call too would double-count.
func detClockTransitive(pkg *Package) []Finding {
	if pkg.prog == nil {
		return nil
	}
	var out []Finding
	seen := make(map[string]bool)
	for _, n := range pkg.prog.nodes {
		if n.pkg != pkg {
			continue
		}
		for _, e := range n.edges {
			c := e.callee
			if !c.summary.wallClock || clockExempt(c.pkg) {
				continue
			}
			if simPackages[pathTail(c.pkg.Path)] || simPackages[c.pkg.Types.Name()] {
				continue // reported at the callee's own site
			}
			pos := pkg.Fset.Position(e.call.Pos())
			key := pos.Filename + "\x00" + pos.String()
			if seen[key] {
				continue // interface dispatch can yield several candidates
			}
			seen[key] = true
			out = append(out, Finding{
				Pos:  pos,
				Rule: "detclock",
				Message: "call to " + shortFuncName(c.fn) + " reaches " + pkg.prog.wallWitness(c) +
					" in simulation package " + pkg.Types.Name() + "; use simulated time (or annotate a sanctioned wall-clock path)",
			})
		}
	}
	return out
}

// pathTail returns the final segment of an import path.
func pathTail(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// isPackage reports whether expr is a reference to the package named by
// import path target.
func isPackage(pkg *Package, expr ast.Expr, target string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == target
}
