package wacovet

import (
	"go/ast"
	"go/types"
)

// PaniccallConfig scopes the paniccall check.
type PaniccallConfig struct {
	// Roots are the serving-path entry packages; every module package
	// reachable from them through imports is in scope.
	Roots []string
	// Within limits findings to packages matching these entries (exact or
	// "prefix/..."), so the rule stays about library code.
	Within []string
}

// DefaultPaniccallConfig bans panic in every internal package the serving
// daemon can reach: a panic in shared library code takes down the whole
// process, so request-dependent failures must surface as errors.
func DefaultPaniccallConfig(module string) PaniccallConfig {
	return PaniccallConfig{
		Roots: []string{
			module + "/internal/serve",
		},
		Within: []string{module + "/internal/..."},
	}
}

// NewPaniccallAnalyzer builds the paniccall check.
func NewPaniccallAnalyzer(cfg PaniccallConfig) *Analyzer {
	return &Analyzer{
		Name: "paniccall",
		Doc:  "no panic in internal packages reachable from the serving path; return errors instead",
		Run:  func(m *Module) []Finding { return runPaniccall(m, cfg) },
	}
}

func runPaniccall(m *Module, cfg PaniccallConfig) []Finding {
	byPath := map[string]*Package{}
	for _, pkg := range m.Packages {
		byPath[pkg.Path] = pkg
	}
	// BFS over module-internal imports from the serving roots.
	reachable := map[string]bool{}
	queue := append([]string(nil), cfg.Roots...)
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if reachable[path] || byPath[path] == nil {
			continue
		}
		reachable[path] = true
		queue = append(queue, byPath[path].Imports...)
	}

	var out []Finding
	for _, pkg := range m.Packages {
		if !reachable[pkg.Path] || !pathApplies(pkg.Path, cfg.Within) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
					return true
				}
				out = append(out, m.finding(call.Pos(), "paniccall",
					"panic in %s, which the serving path reaches; return an error instead", pkg.Path))
				return true
			})
		}
	}
	return out
}
