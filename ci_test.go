package epidemic

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests guards the workflow against stale -run
// patterns. `go test -run X` exits 0 with "no tests to run" when X
// matches nothing, so a CI step naming a deleted or renamed test keeps
// passing while testing nothing. For every `go test … -run '<re>'
// <pkgs>` line in .github/workflows/ci.yml, each top-level
// |-alternative of the pattern's first slash-separated level must match
// at least one Test/Benchmark/Fuzz/Example function declared in the
// _test.go files of the listed packages.
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
		args = args[at+2:]
		pattern, pkgs := ciRunPattern(args)
		if pattern == "" || pattern == "^$" { // ^$ deliberately runs no tests
			continue
		}
		names, err := testFuncNames(pkgs)
		if err != nil {
			t.Fatalf("%s:%d: %v", workflow, i+1, err)
		}
		if len(names) == 0 {
			t.Errorf("%s:%d: packages %v declare no tests", workflow, i+1, pkgs)
			continue
		}
		top := splitUnbracketed(pattern, '/')[0]
		for _, alt := range splitUnbracketed(top, '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s:%d: -run alternative %q: %v", workflow, i+1, alt, err)
				continue
			}
			if !matchesAny(re, names) {
				t.Errorf("%s:%d: -run alternative %q matches no test in %v", workflow, i+1, alt, pkgs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("no -run patterns found in %s; the parser is out of date", workflow)
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

// ciRunPattern extracts the -run value and the package arguments (the
// ones that are paths: ".", "./…") from the arguments after `go test`.
func ciRunPattern(args []string) (pattern string, pkgs []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-run" && i+1 < len(args):
			pattern = args[i+1]
			i++
		case strings.HasPrefix(a, "-run="):
			pattern = strings.TrimPrefix(a, "-run=")
		case a == "." || strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		}
	}
	return pattern, pkgs
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

func matchesAny(re *regexp.Regexp, names map[string]bool) bool {
	for n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
