package abftckpt

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported fails on a dead package: every
// directory under internal/ that holds non-test Go files must be imported
// by a non-test Go file outside that directory. The benchmark module
// (e2ebench/) does not count as an importer, so a package only it uses is
// dead to the program too.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const module = "abftckpt/"
	pkgs := map[string]bool{}     // internal dirs with non-test Go files
	imported := map[string]bool{} // dirs imported from another dir
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "e2ebench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, module); ok && rel != dir {
				imported[rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("found only %d internal packages", len(pkgs))
	}
	var dead []string
	for p := range pkgs {
		if !imported[p] {
			dead = append(dead, p)
		}
	}
	sort.Strings(dead)
	for _, p := range dead {
		t.Errorf("%s: no non-test file outside it imports it; delete it or use it", p)
	}
}
