package gallery_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// pinnedTwins are the operations that still exist twice, as X(args)
// beside XCtx(ctx, args), keyed "pkg.Receiver.X". Each one's ctx-less
// name is what bench/ compiles against.
var pinnedTwins = map[string]bool{
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"core.Registry.RegisterModel": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"core.Registry.UploadInstance": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"core.Registry.InsertMetrics": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"core.Registry.Lineage": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"core.Registry.SearchInstances": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"client.Client.ProductionVersion": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"client.Client.Predict": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"client.Client.GetInstance": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"client.Client.FetchBlob": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"blobstore.Store.Get": true,
	// pinned by bench/; goes in the [benchmark] PR (ROADMAP 6/14/16)
	"blobstore.Store.Put": true,
}

// backgroundAllowed names the functions that take a context and still
// start from context.Background, keyed "pkg.Receiver.func" or "pkg.func".
var backgroundAllowed = map[string]string{}

// internalFiles parses every non-test Go file under internal/, keyed by
// the package's directory name.
func internalFiles(t *testing.T) map[string][]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string][]*ast.File{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		out[pkg] = append(out[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName is the receiver's type name without pointer or type
// parameters, or "" for a plain function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isContextCall reports whether n is a call of context.Background or
// context.TODO.
func isContextCall(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO")
}

// takesContext reports whether a parameter list has a context.Context.
func takesContext(params *ast.FieldList) bool {
	for _, p := range params.List {
		sel, ok := p.Type.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" && sel.Sel.Name == "Context" {
			return true
		}
	}
	return false
}

// TestOneMethodPerOperation keeps the internal API from growing a second
// name for an operation. (a) No receiver has both an exported X and an
// exported XCtx beyond pinnedTwins, and every pinnedTwins entry still
// exists, so the list only shrinks. (b) A function handed a context
// never replaces it with context.Background or context.TODO, which
// would drop the caller's actor and trace, beyond backgroundAllowed.
func TestOneMethodPerOperation(t *testing.T) {
	var pairs, dropped []string
	usedAllow := map[string]bool{}
	for pkg, files := range internalFiles(t) {
		methods := map[string]bool{}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := pkg + "." + fd.Name.Name
				if recv := recvName(fd); recv != "" {
					name = pkg + "." + recv + "." + fd.Name.Name
					if fd.Name.IsExported() {
						methods[name] = true
					}
				}
				if fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok && !takesContext(fd.Type.Params) && takesContext(lit.Type.Params) {
						ast.Inspect(lit.Body, func(n ast.Node) bool {
							if isContextCall(n) {
								dropped = append(dropped, name+" (func literal)")
							}
							return true
						})
						return false
					}
					if isContextCall(n) && takesContext(fd.Type.Params) {
						if _, ok := backgroundAllowed[name]; ok {
							usedAllow[name] = true
						} else {
							dropped = append(dropped, name)
						}
					}
					return true
				})
			}
		}
		for m := range methods {
			if strings.HasSuffix(m, "Ctx") && methods[strings.TrimSuffix(m, "Ctx")] {
				pairs = append(pairs, strings.TrimSuffix(m, "Ctx"))
			}
		}
	}

	sort.Strings(pairs)
	found := map[string]bool{}
	for _, p := range pairs {
		found[p] = true
		if !pinnedTwins[p] {
			t.Errorf("%s and %sCtx are one operation under two names: keep one method, ctx first, under the plain name", p, p)
		}
	}
	for p := range pinnedTwins {
		if !found[p] {
			t.Errorf("pinnedTwins lists %s, which no longer has a ctx-less twin: delete the entry", p)
		}
	}
	sort.Strings(dropped)
	for _, d := range dropped {
		t.Errorf("%s takes a context but calls context.Background or context.TODO: pass the caller's context on", d)
	}
	for name := range backgroundAllowed {
		if !usedAllow[name] {
			t.Errorf("backgroundAllowed lists %s, which no longer calls context.Background: delete the entry", name)
		}
	}
}

// TestNoStandardLogInInternal keeps each daemon to one logger: no
// non-test file under internal/ imports the standard log package, whose
// lines would reach stderr but neither the log ring at GET /v1/debug/logs
// nor an incident bundle. Process events go through the logger
// internal/daemon builds.
func TestNoStandardLogInInternal(t *testing.T) {
	for pkg, files := range internalFiles(t) {
		for _, f := range files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"log"` {
					t.Errorf("package %s under internal/ imports the standard log package: log through the daemon's *slog.Logger", pkg)
				}
			}
		}
	}
}
