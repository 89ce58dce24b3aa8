package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureConfig applies every rule to every fixture package.
func fixtureConfig() Config {
	return Config{Rules: map[string]RuleConfig{
		"no-wallclock":           {},
		"ordered-map-emit":       {},
		"float-eq":               {},
		"scratch-escape":         {Options: map[string]string{"types": "pooledScratch"}},
		"goroutine-shared-write": {},
		"handle-release": {Options: map[string]string{
			"acquire": "fixture/handle.Pool.Acquire",
			"release": "fixture/handle.Pool.Release@1",
		}},
		"capepoch-guard": {Options: map[string]string{
			"bump":    "fixture/capepoch.Net.SetCapacity",
			"derived": "fixture/capepoch.Link.Capacity",
		}},
		"steady-alloc": {},
		"lookahead-positive": {Options: map[string]string{
			"sites": "fixture/lookahead.Engine.Link@2",
		}},
		"unused-suppression": {},
	}}
}

var wantRe = regexp.MustCompile(`// want ([a-z-]+)`)

// wantMarkers scans fixture sources for "// want <rule>" annotations and
// returns them as "relpath:line:rule" keys.
func wantMarkers(t *testing.T, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				want[fmt.Sprintf("%s:%d:%s", rel, line, m[1])] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtures runs every rule over the fixture module and requires the
// finding set to match the // want markers exactly: each marker is a
// positive; every unmarked line (the Good* and Allowed* cases) is a
// negative; //lint:allow sites must produce no finding.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: fixture type errors: %v", p.ImportPath, p.TypeErrors)
		}
	}

	absRoot, _ := filepath.Abs(root)
	got := map[string]bool{}
	for _, f := range Run(fixtureConfig(), AllRules(), pkgs) {
		rel, _ := filepath.Rel(absRoot, f.Pos.Filename)
		got[fmt.Sprintf("%s:%d:%s", rel, f.Pos.Line, f.Rule)] = true
	}
	want := wantMarkers(t, root)

	for k := range want {
		if !got[k] {
			t.Errorf("missing finding %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s", k)
		}
	}
	// Every rule must contribute at least one fixture positive.
	for _, r := range AllRules() {
		found := false
		for k := range want {
			if strings.HasSuffix(k, ":"+r.Name()) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rule %s has no fixture positive", r.Name())
		}
	}
}

// TestSelfClean lints this repository with the shipped configuration: the
// tree must stay free of findings (deliberate sites carry //lint:allow).
func TestSelfClean(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(DefaultConfig(), AllRules(), pkgs)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func TestAllowDirective(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//lint:allow float-eq", []string{"float-eq"}},
		{"//lint:allow float-eq — bit-identity cache key", []string{"float-eq"}},
		{"// lint:allow a,b reason", []string{"a", "b"}},
		{"//lint:allow", nil},
		{"// ordinary comment", nil},
	}
	for _, c := range cases {
		got := allowDirective(c.text)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("allowDirective(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"*", "llmbw/internal/sim", true},
		{"llmbw/internal/sim", "llmbw/internal/sim", true},
		{"llmbw/internal/sim", "llmbw/internal/simx", false},
		{"llmbw/cmd/...", "llmbw/cmd/sweep", true},
		{"llmbw/cmd/...", "llmbw/cmd", true},
		{"llmbw/cmd/...", "llmbw/cmdx", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.pattern, c.path); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

// TestDefaultConfigCoversAllRules keeps the shipped config and the registry
// in sync: a rule missing from DefaultConfig would silently never run.
func TestDefaultConfigCoversAllRules(t *testing.T) {
	cfg := DefaultConfig()
	var names []string
	for _, r := range AllRules() {
		names = append(names, r.Name())
		if _, ok := cfg.Rules[r.Name()]; !ok {
			t.Errorf("rule %s absent from DefaultConfig", r.Name())
		}
	}
	sort.Strings(names)
	if len(names) < 5 {
		t.Fatalf("expected at least 5 registered rules, have %v", names)
	}
}

// TestLoaderPatterns exercises the supported package patterns.
func TestLoaderPatterns(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	one, err := loader.Load([]string{"./floateq"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].ImportPath != "fixture/floateq" {
		t.Fatalf("Load(./floateq) = %+v", one)
	}
	if _, err := loader.Load([]string{"./nosuch"}); err == nil {
		t.Fatal("Load(./nosuch) should fail")
	}
	all, err := loader.Load(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 5 {
		t.Fatalf("expected all fixture packages, got %d", len(all))
	}
}
