package wacovet

import (
	"go/ast"
	"go/types"
)

// CtxflowConfig scopes the ctxflow check.
type CtxflowConfig struct {
	// Packages are the package paths the rule applies to (exact or
	// "prefix/..." entries): the layers between HTTP handlers and kernel
	// measurement where a dropped context would strand a request.
	Packages []string
	// Callees maps a package path to the function/method names whose call
	// sites measure candidates on the machine or traverse the HNSW index.
	// Any exported function in Packages that calls one of them must accept
	// a context.Context parameter and reference it in its body.
	Callees map[string][]string
}

// DefaultCtxflowConfig enforces the serving path of the real module:
// candidate measurement (kernel.Workload.Measure/MeasureSchedule) and index
// traversal (hnsw.Graph.Search/SearchL2, search.Index.Search) may only be
// reached from exported core/search/serve functions that take a context.
func DefaultCtxflowConfig(module string) CtxflowConfig {
	return CtxflowConfig{
		Packages: []string{
			module + "/internal/core",
			module + "/internal/search",
			module + "/internal/serve",
		},
		Callees: map[string][]string{
			module + "/internal/kernel": {"Measure", "MeasureSchedule"},
			module + "/internal/hnsw":   {"Search", "SearchL2"},
			module + "/internal/search": {"Search"},
		},
	}
}

// NewCtxflowAnalyzer builds the ctxflow check.
func NewCtxflowAnalyzer(cfg CtxflowConfig) *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "exported serving-path functions that measure candidates or traverse the index must accept and use a context.Context",
		Run:  func(m *Module) []Finding { return runCtxflow(m, cfg) },
	}
}

func runCtxflow(m *Module, cfg CtxflowConfig) []Finding {
	var out []Finding
	for _, pkg := range m.Packages {
		if !pathApplies(pkg.Path, cfg.Packages) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !fn.Name.IsExported() {
					continue
				}
				callee := measuringCallee(pkg.Info, fn.Body, cfg.Callees)
				if callee == "" {
					continue
				}
				params := ctxParams(pkg.Info, fn)
				switch {
				case len(params) == 0:
					out = append(out, m.finding(fn.Name.Pos(), "ctxflow",
						"exported %s calls %s but has no context.Context parameter; cancellation cannot reach the search", fn.Name.Name, callee))
				case !usesAny(pkg.Info, fn.Body, params):
					out = append(out, m.finding(fn.Name.Pos(), "ctxflow",
						"exported %s calls %s but never checks or propagates its context.Context parameter", fn.Name.Name, callee))
				}
			}
		}
	}
	return out
}

// measuringCallee returns "pkg.Name" for the first configured
// measurement/traversal callee invoked anywhere in body, or "".
func measuringCallee(info *types.Info, body *ast.BlockStmt, callees map[string][]string) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		for _, name := range callees[fn.Pkg().Path()] {
			if fn.Name() == name {
				found = fn.Pkg().Name() + "." + name
				return false
			}
		}
		return true
	})
	return found
}

// ctxParams returns the declared parameters of type context.Context.
func ctxParams(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && obj.Type().String() == "context.Context" {
				out = append(out, obj)
			}
		}
	}
	return out
}

// usesAny reports whether body references at least one of the objects.
func usesAny(info *types.Info, body *ast.BlockStmt, objs []types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		for _, o := range objs {
			if obj == o {
				used = true
				return false
			}
		}
		return true
	})
	return used
}
