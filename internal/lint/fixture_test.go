package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureRoot returns the absolute path of the fixture module.
func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// wantSet holds expected-diagnostic substrings keyed by file basename
// and line (fixture basenames are unique, which sidesteps relative vs
// absolute path differences in reported positions).
type wantSet map[string]map[int][]string

var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// collectWants parses `// want "substring"` annotations from every .go
// file in the given fixture subdirectories.
func collectWants(t *testing.T, root string, dirs []string) wantSet {
	t.Helper()
	wants := make(wantSet)
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no fixture files in %s", filepath.Join(root, dir))
		}
		for _, file := range files {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			base := filepath.Base(file)
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				idx := strings.Index(sc.Text(), "// want ")
				if idx < 0 {
					continue
				}
				for _, m := range wantQuoted.FindAllStringSubmatch(sc.Text()[idx:], -1) {
					if wants[base] == nil {
						wants[base] = make(map[int][]string)
					}
					wants[base][line] = append(wants[base][line], m[1])
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return wants
}

// consume marks one want at (base, line) matched if its substring occurs
// in msg.
func (w wantSet) consume(base string, line int, msg string) bool {
	subs := w[base][line]
	for i, s := range subs {
		if strings.Contains(msg, s) {
			w[base][line] = append(subs[:i:i], subs[i+1:]...)
			return true
		}
	}
	return false
}

// matchDiags checks diagnostics against wants one-to-one. A diagnostic
// matches a want on its own line, or on the line below it (the only way
// to annotate a finding on a //lint:ignore line, which cannot carry a
// second line comment).
func matchDiags(t *testing.T, diags []Diagnostic, wants wantSet) {
	t.Helper()
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		if !wants.consume(base, d.Pos.Line, d.Message) && !wants.consume(base, d.Pos.Line+1, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for base, lines := range wants {
		for line, subs := range lines {
			for _, s := range subs {
				t.Errorf("missing diagnostic at %s:%d: want %q", base, line, s)
			}
		}
	}
}

// TestAnalyzersOnFixtures runs each analyzer alone against its fixture
// packages: every seeded violation must be detected, and nothing else.
func TestAnalyzersOnFixtures(t *testing.T) {
	root := fixtureRoot(t)
	tests := []struct {
		analyzer   *Analyzer
		dirs       []string
		suppressed int
	}{
		// lockio seeds locks held across fsync/sends; cyclea+cycleb seed
		// the cross-package lock-order cycle.
		{LockOrder, []string{"locks", "lockio", "cyclea", "cycleb"}, 0},
		{FloatOrder, []string{"floats"}, 0},
		// The dropped fixture also seeds directive handling: two valid
		// suppressions, malformed directives reported as [lint], and a
		// stale directive whose finding no longer exists.
		{DroppedErr, []string{"dropped"}, 2},
		// hotvec seeds one suppressed cold-loop Clone.
		{HotAlloc, []string{"hotvec", "hotcluster"}, 1},
		{GoroutineLife, []string{"goro"}, 0},
		{AtomicMix, []string{"atomix"}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			patterns := make([]string, len(tc.dirs))
			for i, d := range tc.dirs {
				patterns[i] = "./" + d
			}
			res, err := Run(root, patterns, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			matchDiags(t, res.Diagnostics, collectWants(t, root, tc.dirs))
			if res.Suppressed != tc.suppressed {
				t.Errorf("suppressed = %d, want %d", res.Suppressed, tc.suppressed)
			}
		})
	}
}

// TestCleanFixture asserts the blessed-idiom package raises nothing.
func TestCleanFixture(t *testing.T) {
	res, err := Run(fixtureRoot(t), []string{"./clean"}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("clean fixture produced: %s", d)
	}
	if res.Suppressed != 0 {
		t.Errorf("clean fixture suppressed = %d, want 0", res.Suppressed)
	}
}

// TestEndToEnd runs the full suite over the whole fixture module, the
// way cmd/vitrilint does, and checks the exact diagnostic set, the
// suppression count, and the file:line: [analyzer] message format.
func TestEndToEnd(t *testing.T) {
	root := fixtureRoot(t)
	res, err := Run(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	matchDiags(t, res.Diagnostics, collectWants(t, root,
		[]string{"pager", "locks", "floats", "dropped", "clean", "hotvec", "hotcluster", "vfs", "lockio", "cyclea", "cycleb", "goro", "atomix"}))
	if res.Suppressed != 4 {
		t.Errorf("suppressed = %d, want 4", res.Suppressed)
	}
	if res.Packages != 13 {
		t.Errorf("packages = %d, want 13", res.Packages)
	}
	format := regexp.MustCompile(`^[^:]+\.go:\d+: \[[a-z]+\] .+$`)
	for _, d := range res.Diagnostics {
		if !format.MatchString(d.String()) {
			t.Errorf("diagnostic %q does not match file:line: [analyzer] message", d.String())
		}
	}
}

// TestPatternsSelectPackages pins down the pattern grammar the driver
// accepts.
func TestPatternsSelectPackages(t *testing.T) {
	root := fixtureRoot(t)
	for _, tc := range []struct {
		patterns []string
		packages int
	}{
		{[]string{"./..."}, 13},
		{[]string{"./locks"}, 1},
		{[]string{"./locks", "./floats"}, 2},
		{[]string{"./nosuchdir"}, 0},
	} {
		res, err := Run(root, tc.patterns, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Packages != tc.packages {
			t.Errorf("patterns %v matched %d packages, want %d", tc.patterns, res.Packages, tc.packages)
		}
	}
}

// TestDiagnosticString pins the exact rendering the driver prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "lockorder", Message: "boom"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 7
	if got, want := d.String(), "a/b.go:7: [lockorder] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// ExampleAll lists the suite in registration order.
func ExampleAll() {
	for _, a := range All() {
		fmt.Println(a.Name)
	}
	// Output:
	// lockorder
	// floatorder
	// droppederr
	// hotalloc
	// goroutinelife
	// atomicmix
}
