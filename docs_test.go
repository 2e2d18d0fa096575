package sinrconn

// Documentation gates, run by the CI docs job:
//
//   - TestDocLinks: every relative markdown link in every *.md file must
//     resolve to a file that exists in the repository.
//   - TestPackageComments: every Go package — root, internal/*, cmd/*,
//     examples/* — must carry a package comment, so `go doc` works
//     everywhere.
//   - TestCIPatternsMatchTests: every -run/-bench pattern and fuzz target
//     in the CI workflow must name a test that exists, so a rename cannot
//     turn a CI step into a silent "no tests to run".

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// mdLink matches [text](target); targets with schemes or pure anchors are
// filtered by the caller.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) < 5 {
		t.Fatalf("found only %d markdown files — walk broken?", len(mdFiles))
	}
	for _, md := range mdFiles {
		if filepath.Base(md) == "SNIPPETS.md" {
			// Quotes exemplar files from external repositories verbatim,
			// including their relative links; those don't resolve here by
			// design.
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; CI stays hermetic
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue // same-file anchor
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

// ciToken splits a shell command into words, keeping a single-quoted
// argument whole (without its quotes).
var ciToken = regexp.MustCompile(`'[^']*'|\S+`)

// testFuncs lists the Test, Benchmark and Fuzz functions declared in the
// _test.go files of the package at dir, or of every package under it for
// a dir ending in "/...".
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var files []string
	if root, ok := strings.CutSuffix(dir, "/..."); ok {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		files, _ = filepath.Glob(filepath.Join(dir, "*_test.go"))
	}
	var names []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(data), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

func TestCIPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked, fuzzed := 0, 0
	var fuzzPkg string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if pkg, ok := strings.CutPrefix(line, "- pkg: "); ok {
			fuzzPkg = pkg
			continue
		}
		if target, ok := strings.CutPrefix(line, "target: "); ok {
			if !slices.Contains(testFuncs(t, fuzzPkg), target) || !strings.HasPrefix(target, "Fuzz") {
				t.Errorf("fuzz matrix: %s has no func %s", fuzzPkg, target)
			}
			fuzzed++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		dir := "."
		for _, cmd := range strings.Split(line, "&&") {
			words := ciToken.FindAllString(cmd, -1)
			for i := range words {
				words[i] = strings.Trim(words[i], "'")
			}
			if len(words) == 2 && words[0] == "cd" {
				dir = words[1]
				continue
			}
			i := slices.Index(words, "go")
			if i < 0 || i+1 >= len(words) || words[i+1] != "test" {
				continue
			}
			var pkgs []string
			patterns := map[string]string{} // flag → pattern
			for j := i + 2; j < len(words); j++ {
				switch w := words[j]; {
				case (w == "-run" || w == "-bench") && j+1 < len(words):
					patterns[w] = words[j+1]
					j++
				case w == "." || strings.HasPrefix(w, "./"):
					if rest, ok := strings.CutSuffix(w, "..."); ok {
						pkgs = append(pkgs, filepath.Join(dir, rest)+"/...")
					} else {
						pkgs = append(pkgs, filepath.Join(dir, w))
					}
				}
			}
			if len(patterns) == 0 {
				continue
			}
			var funcs []string
			for _, pkg := range pkgs {
				funcs = append(funcs, testFuncs(t, pkg)...)
			}
			for flag, pattern := range patterns {
				prefix := map[string]string{"-run": "Test", "-bench": "Benchmark"}[flag]
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					if alt == "^$" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("ci.yml %q: %s %q: %v", line, flag, alt, err)
						continue
					}
					checked++
					if !slices.ContainsFunc(funcs, func(f string) bool {
						return strings.HasPrefix(f, prefix) && re.MatchString(f)
					}) {
						t.Errorf("ci.yml %q: %s alternative %q matches no %s function in %v", line, flag, alt, prefix, pkgs)
					}
				}
			}
		}
	}
	if checked < 10 || fuzzed < 5 {
		t.Fatalf("checked only %d patterns and %d fuzz targets — ci.yml parse broken?", checked, fuzzed)
	}
}

func TestPackageComments(t *testing.T) {
	var pkgDirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
			for _, f := range matches {
				if !strings.HasSuffix(f, "_test.go") {
					pkgDirs = append(pkgDirs, path)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgDirs) < 15 {
		t.Fatalf("found only %d package dirs — walk broken?", len(pkgDirs))
	}
	for _, dir := range pkgDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package comment — add a doc.go", name, dir)
			}
		}
	}
}
