package epidemic

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests guards the workflow against stale -run,
// -bench and -fuzz patterns. `go test -run X` exits 0 with "no tests to
// run" when X matches nothing, `go test -bench X` exits 0 having run no
// benchmark, and `go test -run '^$' -fuzz X` exits 0 having fuzzed
// nothing, so a CI step naming a deleted or renamed function keeps
// passing while testing nothing. For every `go test … <pkgs>` line in
// .github/workflows/ci.yml, each top-level |-alternative of the first
// slash-separated level of its -run pattern must match at least one
// Test/Benchmark/Fuzz/Example function declared in the _test.go files of
// the listed packages, each alternative of its -bench pattern at least
// one Benchmark function there, and each alternative of its -fuzz
// pattern at least one Fuzz function. "^$" and "." select deliberately
// and are not checked.
func TestCIRunPatternsMatchTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		args := shellFields(line)
		at := indexPair(args, "go", "test")
		if at < 0 {
			continue
		}
		run, bench, fuzz, pkgs := ciTestPatterns(args[at+2:])
		var names map[string]bool
		for _, sel := range []struct{ flag, pattern, prefix, what string }{
			{"-run", run, "", "test"},
			{"-bench", bench, "Benchmark", "benchmark"},
			{"-fuzz", fuzz, "Fuzz", "fuzz"},
		} {
			if sel.pattern == "" || sel.pattern == "^$" || sel.pattern == "." {
				continue
			}
			if names == nil {
				if names, err = testFuncNames(pkgs); err != nil {
					t.Fatalf("%s:%d: %v", workflow, i+1, err)
				}
			}
			top := splitUnbracketed(sel.pattern, '/')[0]
			for _, alt := range splitUnbracketed(top, '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: %s alternative %q: %v", workflow, i+1, sel.flag, alt, err)
					continue
				}
				if !matchesAny(re, names, sel.prefix) {
					t.Errorf("%s:%d: %s alternative %q matches no %s function in %v", workflow, i+1, sel.flag, alt, sel.what, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no -run, -bench or -fuzz patterns found in %s; the parser is out of date", workflow)
	}
}

// shellFields splits a command line on blanks, honouring single and
// double quotes (enough shell for the workflow's go test lines).
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	var quote rune
	inField := false
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inField = r, true
		case r == ' ' || r == '\t':
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// indexPair returns the index of the first adjacent (a, b) in args, or
// -1.
func indexPair(args []string, a, b string) int {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == a && args[i+1] == b {
			return i
		}
	}
	return -1
}

// ciTestPatterns extracts the -run, -bench and -fuzz values and the
// package arguments (the ones that are paths: ".", "./…") from the
// arguments after `go test`.
func ciTestPatterns(args []string) (run, bench, fuzz string, pkgs []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-run" && i+1 < len(args):
			run = args[i+1]
			i++
		case strings.HasPrefix(a, "-run="):
			run = strings.TrimPrefix(a, "-run=")
		case a == "-bench" && i+1 < len(args):
			bench = args[i+1]
			i++
		case strings.HasPrefix(a, "-bench="):
			bench = strings.TrimPrefix(a, "-bench=")
		case a == "-fuzz" && i+1 < len(args):
			fuzz = args[i+1]
			i++
		case strings.HasPrefix(a, "-fuzz="):
			fuzz = strings.TrimPrefix(a, "-fuzz=")
		case a == "." || strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		}
	}
	return run, bench, fuzz, pkgs
}

// splitUnbracketed splits s on sep outside (), [] and {} groups, the way
// go test splits -run into levels and a level into alternatives.
func splitUnbracketed(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// testFuncNames collects the top-level test functions declared in the
// _test.go files of the given package patterns. "./..." walks the
// module, skipping nested modules (directories with their own go.mod).
func testFuncNames(pkgs []string) (map[string]bool, error) {
	seen := map[string]bool{}
	addDir := func(dir string) error {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
				seen[string(m[1])] = true
			}
		}
		return nil
	}
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "/...")
		if !recursive {
			if _, err := os.Stat(pkg); err != nil {
				return nil, err
			}
			if err := addDir(pkg); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				name := d.Name()
				if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return addDir(path)
		})
		if err != nil {
			return nil, err
		}
	}
	return seen, nil
}

// matchesAny reports whether re matches a name starting with prefix.
func matchesAny(re *regexp.Regexp, names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) && re.MatchString(n) {
			return true
		}
	}
	return false
}
