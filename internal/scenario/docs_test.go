package scenario

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const scenariosDoc = "../../docs/SCENARIOS.md"

// specTypes are all structs whose JSON fields form the campaign-file
// schema: Campaign, Spec and every registered kind's params struct, plus
// the struct types their fields reach. Adding a field to any of them
// without documenting it in docs/SCENARIOS.md fails
// TestScenariosDocCoversEverySpecField.
func specTypes() []reflect.Type {
	var out []reflect.Type
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || t.PkgPath() != reflect.TypeFor[Spec]().PkgPath() || seen[t] {
			return
		}
		seen[t] = true
		out = append(out, t)
		for i := 0; i < t.NumField(); i++ {
			walk(t.Field(i).Type)
		}
	}
	walk(reflect.TypeFor[Campaign]())
	for _, k := range kinds {
		walk(k.params)
	}
	return out
}

// TestScenariosDocCoversEverySpecField diffs the campaign-file schema (the
// json struct tags of every spec struct) against docs/SCENARIOS.md: every
// field name must appear as a backticked identifier, and every kind must
// have its own section.
func TestScenariosDocCoversEverySpecField(t *testing.T) {
	data, err := os.ReadFile(scenariosDoc)
	if err != nil {
		t.Fatalf("read %s: %v", scenariosDoc, err)
	}
	doc := string(data)
	types := specTypes()
	if len(types) < 14 {
		t.Fatalf("schema walk found only %d struct types", len(types))
	}
	for _, typ := range types {
		for i := 0; i < typ.NumField(); i++ {
			tag := typ.Field(i).Tag.Get("json")
			name, _, _ := strings.Cut(tag, ",")
			if typ == reflect.TypeFor[Spec]() && name == "-" {
				continue // Params: its fields are the kind's own
			}
			if name == "" || name == "-" {
				t.Errorf("%s.%s has no json name; campaign-file fields must be tagged",
					typ.Name(), typ.Field(i).Name)
				continue
			}
			if !strings.Contains(doc, "`"+name+"`") {
				t.Errorf("docs/SCENARIOS.md does not document %s.%s (json %q)",
					typ.Name(), typ.Field(i).Name, name)
			}
		}
	}
	for _, k := range kinds {
		if !strings.Contains(doc, "## Kind: `"+k.name+"`") {
			t.Errorf("docs/SCENARIOS.md has no section for kind %q", k.name)
		}
	}
}

// TestScenariosDocExamplesAreRunnable loads every ```json block of
// docs/SCENARIOS.md through the strict campaign parser, so the documented
// examples cannot rot.
func TestScenariosDocExamplesAreRunnable(t *testing.T) {
	data, err := os.ReadFile(scenariosDoc)
	if err != nil {
		t.Fatalf("read %s: %v", scenariosDoc, err)
	}
	blocks := regexp.MustCompile("(?s)```json\n(.*?)```").FindAllStringSubmatch(string(data), -1)
	if len(blocks) < 9 {
		t.Fatalf("found only %d json examples in %s, want one per kind plus the campaign example",
			len(blocks), scenariosDoc)
	}
	for i, m := range blocks {
		if _, err := Load(strings.NewReader(m[1])); err != nil {
			t.Errorf("example %d does not validate: %v\n%s", i, err, m[1])
		}
	}
}

// mdLink matches inline markdown links, capturing the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestIntraRepoMarkdownLinks resolves every relative markdown link of every
// committed .md file against the working tree: broken cross-references fail
// here instead of surprising a reader.
func TestIntraRepoMarkdownLinks(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip generated/output directories and hidden trees.
			switch d.Name() {
			case ".git", "out", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("found no markdown files")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				rel, _ := filepath.Rel(root, file)
				t.Errorf("%s links to %q, which does not exist (%v)", rel, m[1], err)
			}
		}
	}
}

const paperMapDoc = "../../docs/PAPER_MAP.md"

// codeSpan matches a backticked markdown code span, capturing its text.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// fencedBlock matches a fenced markdown code block, whose backticks pair
// with nothing.
var fencedBlock = regexp.MustCompile("(?ms)^```.*?^```$")

// citedSymbol matches a code span that starts with a qualified Go
// identifier, pkg.Ident (the rest of the span, such as a field or method
// selector, is ignored).
var citedSymbol = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)`)

// topLevelDecls returns the names of the top-level declarations (funcs
// without a receiver, types, vars and consts) of every Go file in dir, test
// files included.
func topLevelDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// citingDocs are the documents whose backticked pkg.Ident citations
// TestPaperMapCitesExistingSymbols checks, each with the fewest it must
// find (a guard against a parser that silently matches nothing).
var citingDocs = []struct {
	path string
	min  int
}{
	{paperMapDoc, 40},
	{"../../docs/ARCHITECTURE.md", 45},
}

// metricName matches an e2e benchmark metric name such as store.get_n or
// scenario.preload_ms: snake case, never a Go identifier of this repo.
var metricName = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`)

// stdlibPackage reports whether name is the last element of a standard
// library package path (math, strconv, encoding/json, math/bits, …).
func stdlibPackage(name string) bool {
	src := filepath.Join(build.Default.GOROOT, "src")
	for _, dir := range []string{filepath.Join(src, name), filepath.Join(src, "*", name)} {
		if m, _ := filepath.Glob(dir); len(m) > 0 {
			return true
		}
	}
	return false
}

// TestPaperMapCitesExistingSymbols checks that every backticked pkg.Ident
// of docs/PAPER_MAP.md and docs/ARCHITECTURE.md names a top-level
// declaration of package internal/<pkg>, so the docs cannot point at
// deleted or renamed code. An exported identifier of a package that is
// neither internal nor in the standard library fails too. Benchmark
// metric names (store.get_n) are no citations.
func TestPaperMapCitesExistingSymbols(t *testing.T) {
	decls := map[string]map[string]bool{}
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatalf("read %s: %v", doc.path, err)
		}
		name := strings.TrimPrefix(doc.path, "../../")
		checked := 0
		text := fencedBlock.ReplaceAllString(string(data), "")
		for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
			m := citedSymbol.FindStringSubmatch(span[1])
			if m == nil || metricName.MatchString(m[2]) {
				continue
			}
			pkg, ident := m[1], m[2]
			if decls[pkg] == nil {
				dir := filepath.Join("..", pkg)
				if st, err := os.Stat(dir); err != nil || !st.IsDir() {
					// A file name such as paper.json is no citation; an
					// exported identifier of a missing package is a stale one.
					if ast.IsExported(ident) && !stdlibPackage(pkg) {
						t.Errorf("%s cites %s.%s, but there is no package internal/%s", name, pkg, ident, pkg)
					}
					continue
				}
				decls[pkg] = topLevelDecls(t, dir)
			}
			checked++
			if !decls[pkg][ident] {
				t.Errorf("%s cites %s.%s, which is not a top-level declaration of internal/%s", name, pkg, ident, pkg)
			}
		}
		if checked < doc.min {
			t.Fatalf("checked only %d citations in %s", checked, name)
		}
	}
}
