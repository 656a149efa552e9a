package wacovet

// goleak flags fire-and-forget goroutines in the serving packages. A
// goroutine spawned on a request path that nobody joins, signals, or cancels
// outlives its request, leaks under load, and defeats graceful drain. The
// analyzer accepts a spawn when the spawned body — or a module function it
// calls, followed to a small depth — shows any lifecycle discipline:
//
//   - sync.WaitGroup.Done (someone Waits for it)
//   - a channel send or close (its completion is observable)
//   - a channel receive or select (it watches a done/ctx signal)
//   - context.Context use (ctx.Done/Err or a ctx-taking callee)
//   - a call into the parallelism pool (the pool owns the lifecycle)
//
// Anything else is a finding at the go statement. The depth-limited callee
// walk matters in practice: a body like `go func() { defer s.end(); ... }`
// hides its wg.Done one call away, inside end().

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoleakConfig configures the goleak analyzer.
type GoleakConfig struct {
	// Packages are the package paths (or prefix/... patterns) whose go
	// statements are checked.
	Packages []string
	// PoolPkgs are packages whose calls count as lifecycle management (the
	// worker pool owns joining its goroutines).
	PoolPkgs []string
	// Depth is how many levels of module-internal calls to follow when
	// looking for a lifecycle signal (default 2).
	Depth int
}

// DefaultGoleakConfig covers the serving tier: the daemons and the package
// behind them.
func DefaultGoleakConfig(module string) GoleakConfig {
	return GoleakConfig{
		Packages: []string{
			module + "/internal/serve",
			module + "/cmd/...",
		},
		PoolPkgs: []string{module + "/internal/parallelism"},
	}
}

// NewGoleakAnalyzer builds the analyzer.
func NewGoleakAnalyzer(cfg GoleakConfig) *Analyzer {
	if cfg.Depth == 0 {
		cfg.Depth = 2
	}
	return &Analyzer{
		Name: "goleak",
		Doc:  "goroutines in serving packages must be joined (WaitGroup), signal completion (send/close), or watch cancellation (select/ctx) — no fire-and-forget spawns",
		Run:  func(m *Module) []Finding { return runGoleak(m, cfg) },
	}
}

// declSite is a module function declaration with the package that owns it
// (the package's Info is needed to resolve calls inside the body).
type declSite struct {
	decl *ast.FuncDecl
	pkg  *Package
}

func runGoleak(m *Module, cfg GoleakConfig) []Finding {
	// Module-wide map from the type-checker's view of a function to its
	// declaration, so the walk can follow calls across packages.
	decls := map[*types.Func]declSite{}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = declSite{decl: fd, pkg: pkg}
				}
			}
		}
	}

	var findings []Finding
	for _, pkg := range m.Packages {
		if !pathApplies(pkg.Path, cfg.Packages) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				w := &goleakWalk{cfg: cfg, decls: decls, visited: map[*ast.FuncDecl]bool{}}
				if !w.spawnManaged(pkg, g.Call) {
					findings = append(findings, m.finding(g.Pos(), "goleak",
						"fire-and-forget goroutine: spawned body shows no WaitGroup.Done, channel signal, select/ctx cancellation, or pool handoff"))
				}
				return true
			})
		}
	}
	return findings
}

// goleakWalk carries the state of one spawn site's lifecycle search.
type goleakWalk struct {
	cfg     GoleakConfig
	decls   map[*types.Func]declSite
	visited map[*ast.FuncDecl]bool
}

// spawnManaged decides whether the goroutine spawned by `go call(...)`
// shows lifecycle discipline.
func (w *goleakWalk) spawnManaged(pkg *Package, call *ast.CallExpr) bool {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return w.bodyManaged(pkg, lit.Body, w.cfg.Depth)
	}
	// `go s.run(ctx)` style: a spawned call taking a context is managed by
	// convention (the callee must watch it; ctxflow enforces use).
	if w.callIsLifecycle(pkg, call) {
		return true
	}
	if fn := calleeFunc(pkg.Info, call); fn != nil {
		if site, ok := w.decls[fn]; ok {
			return w.bodyManaged(site.pkg, site.decl.Body, w.cfg.Depth)
		}
	}
	return false
}

// bodyManaged scans one function body for a lifecycle signal, following
// module-internal calls depth levels deep.
func (w *goleakWalk) bodyManaged(pkg *Package, body *ast.BlockStmt, depth int) bool {
	if body == nil {
		return false
	}
	managed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if managed {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			managed = true
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // channel receive
				managed = true
				return false
			}
		case *ast.RangeStmt:
			// ranging over a channel is a receive loop
			if t, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					managed = true
					return false
				}
			}
		case *ast.CallExpr:
			if w.callIsLifecycle(pkg, n) {
				managed = true
				return false
			}
			if depth > 0 {
				if fn := calleeFunc(pkg.Info, n); fn != nil {
					if site, ok := w.decls[fn]; ok && !w.visited[site.decl] {
						w.visited[site.decl] = true
						if w.bodyManaged(site.pkg, site.decl.Body, depth-1) {
							managed = true
							return false
						}
					}
				}
			}
		}
		return true
	})
	return managed
}

// callIsLifecycle reports whether one call is itself a lifecycle signal:
// WaitGroup.Done, close(), a ctx method, or a pool-package call.
func (w *goleakWalk) callIsLifecycle(pkg *Package, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return false
	}
	full := fn.FullName()
	switch full {
	case "(*sync.WaitGroup).Done", "(*sync.WaitGroup).Wait":
		return true
	}
	// Any context.Context method (Done, Err, Deadline, Value) means the body
	// is at least looking at its cancellation signal.
	if strings.HasPrefix(full, "(context.Context).") {
		return true
	}
	if p := fn.Pkg(); p != nil && pathApplies(p.Path(), w.cfg.PoolPkgs) {
		return true
	}
	// A spawned call that accepts a context delegates cancellation to the
	// callee; ctxflow separately enforces that serving callees use it.
	if sig, ok := fn.Type().(*types.Signature); ok {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if named, ok := params.At(i).Type().(*types.Named); ok {
				if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context" {
					return true
				}
			}
		}
	}
	return false
}
