package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the repo's headline reproducibility contract
// (DESIGN.md §8–9): two runs of the same seeded scenario must make
// byte-identical decision sequences, so simulation and control-plane code
// must never read the wall clock, sleep, or draw from the global math/rand
// state. Virtual time flows in as an argument; randomness comes from a
// seeded *rand.Rand (internal/rng).
//
// Scope: packages under internal/ and cmd/. Allowlist: named tap functions
// only — svc's wallNow/wallSleep (the service plane's injected clock) and
// reproduce's wallNow (its artifact index is stamped and timed in wall time)
// — so each deliberate wall-clock boundary is one grep-able function and the
// rest of its package stays checked.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, sleeps, and global math/rand in sim/control packages",
	Run:  runDeterminism,
}

// forbiddenTime lists the time package's nondeterminism sources: clock
// reads and anything that couples execution to real elapsed time.
var forbiddenTime = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "couples the run to real elapsed time",
	"After":     "couples the run to real elapsed time",
	"Tick":      "couples the run to real elapsed time",
	"NewTimer":  "couples the run to real elapsed time",
	"NewTicker": "couples the run to real elapsed time",
	"AfterFunc": "couples the run to real elapsed time",
}

// allowedRand lists math/rand package-level functions that do not touch the
// global generator.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// determinismAllowedFunc exempts specific functions: pkg-path suffix →
// function names.
var determinismAllowedFunc = map[string]map[string]bool{
	// The service plane is a deliberate wall-clock boundary: request
	// deadlines, queue aging, breaker cooldowns, and the resident-run stall
	// watchdog are wall-clock concepts. All of internal/svc reads time
	// through these two injected taps (see svc.Clock), so the hosted
	// simulations stay on virtual tick time.
	"internal/svc": {"wallNow": true, "wallSleep": true},
	// reproduce stamps its artifact index and times each artifact; the
	// artifacts themselves are built on virtual time.
	"cmd/reproduce": {"wallNow": true},
}

func runDeterminism(p *Pass) {
	path := p.Pkg.Path
	if !strings.Contains(path, "/internal/") && !strings.Contains(path, "/cmd/") {
		return
	}
	var allowedFuncs map[string]bool
	for suffix, fns := range determinismAllowedFunc {
		if strings.HasSuffix(path, suffix) {
			allowedFuncs = fns
		}
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if allowedFuncs[fd.Name.Name] && fd.Recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := p.Callee(call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn) are fine
				}
				switch fn.Pkg().Path() {
				case "time":
					if why, bad := forbiddenTime[fn.Name()]; bad {
						p.Reportf(call.Pos(), "time.%s %s; sim/control code must use virtual tick time", fn.Name(), why)
					}
				case "math/rand", "math/rand/v2":
					if !allowedRand[fn.Name()] {
						p.Reportf(call.Pos(), "global rand.%s is shared mutable state; draw from a seeded *rand.Rand (internal/rng) instead", fn.Name())
					}
				}
				return true
			})
		}
	}
}
