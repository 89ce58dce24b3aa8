// Package lint is the simulator's own static-analysis pass: it type-checks
// the module from source (stdlib go/parser + go/types, no external
// dependencies) and checks the determinism and invariant contract that the
// golden tests rely on — no wall-clock time in simulation code, no map
// iteration feeding serialized output, no exact float comparison, no pooled
// scratch objects escaping, no unsynchronized writes from goroutines.
//
// Rules are registered in a registry, scoped per package by Config, and can
// be suppressed at a deliberate site with a trailing or preceding
//
//	//lint:allow <rule> — reason
//
// comment. Findings render as "file:line: [rule] message", the format editors
// and CI annotate.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos     token.Position // resolved position (file path relative to module root when possible)
	Rule    string
	Message string
}

// String renders the finding in the canonical file:line: [rule] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Rule is one analyzer. Check inspects a single type-checked package and
// reports violations through the Checker.
type Rule interface {
	Name() string
	Doc() string
	Check(c *Checker, pkg *Package)
}

// RuleConfig scopes one rule to a set of packages.
type RuleConfig struct {
	// Include lists import-path patterns the rule applies to. A pattern is
	// an exact import path, a prefix pattern ending in "/..." matching the
	// package and everything below it, or "*" matching every package.
	// An empty list applies the rule everywhere.
	Include []string
	// Exclude lists patterns removed from Include's selection.
	Exclude []string
	// Options carries rule-specific tuning (e.g. pooled type names for
	// scratch-escape).
	Options map[string]string
}

// Config selects which rules run where. Rules absent from the map run
// nowhere, so a config is also the rule enable-list.
type Config struct {
	Rules map[string]RuleConfig
}

// matchPattern reports whether the import path matches one pattern.
func matchPattern(pattern, path string) bool {
	if pattern == "*" || pattern == "..." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return path == pattern
}

func matchAny(patterns []string, path string) bool {
	for _, p := range patterns {
		if matchPattern(p, path) {
			return true
		}
	}
	return false
}

// Applies reports whether the rule named r runs on the package.
func (c Config) Applies(r, importPath string) bool {
	rc, ok := c.Rules[r]
	if !ok {
		return false
	}
	if len(rc.Include) > 0 && !matchAny(rc.Include, importPath) {
		return false
	}
	return !matchAny(rc.Exclude, importPath)
}

// Option returns a rule option value ("" when unset).
func (c Config) Option(rule, key string) string {
	return c.Rules[rule].Options[key]
}

// Checker carries the run state shared by all rules: the config, the file
// set, and the accumulated findings (with suppression applied).
type Checker struct {
	cfg      Config
	fset     *token.FileSet
	rule     string // rule currently executing
	findings []Finding
	// allowed maps file -> line -> rules suppressed at that line.
	allowed map[string]map[int][]string
	// suppressed counts findings dropped by //lint:allow comments.
	suppressed int
	// hits records which suppressions actually silenced a finding
	// (file -> line -> rule), feeding the unused-suppression audit.
	hits map[string]map[int]map[string]bool
	// ranRules names every rule executed in this run.
	ranRules map[string]bool
	// analysis is the inter-procedural layer (call graph + summaries) the
	// v2 rules consult; built once per Run.
	analysis *analysis
}

// NewChecker builds a checker over the loaded packages' file set.
func NewChecker(cfg Config, fset *token.FileSet) *Checker {
	return &Checker{
		cfg: cfg, fset: fset,
		allowed:  map[string]map[int][]string{},
		hits:     map[string]map[int]map[string]bool{},
		ranRules: map[string]bool{},
	}
}

// Config exposes the active configuration to rules.
func (c *Checker) Config() Config { return c.cfg }

// Reportf records a finding at pos for the rule currently running, unless a
// //lint:allow comment on the same or the preceding line suppresses it.
func (c *Checker) Reportf(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	if c.isAllowed(p) {
		c.suppressed++
		return
	}
	c.findings = append(c.findings, Finding{Pos: p, Rule: c.rule, Message: fmt.Sprintf(format, args...)})
}

func (c *Checker) isAllowed(p token.Position) bool {
	lines := c.allowed[p.Filename]
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, r := range lines[line] {
			if r == c.rule || r == "*" {
				c.recordHit(p.Filename, line, c.rule)
				return true
			}
		}
	}
	return false
}

// recordHit marks the suppression at (file, line) as having silenced rule.
func (c *Checker) recordHit(file string, line int, rule string) {
	m := c.hits[file]
	if m == nil {
		m = map[int]map[string]bool{}
		c.hits[file] = m
	}
	if m[line] == nil {
		m[line] = map[string]bool{}
	}
	m[line][rule] = true
}

// suppressionHit reports whether the //lint:allow at (file, line) silenced
// at least one finding of rule during this run.
func (c *Checker) suppressionHit(file string, line int, rule string) bool {
	return c.hits[file][line][rule]
}

// Suppressed reports how many findings //lint:allow comments silenced.
func (c *Checker) Suppressed() int { return c.suppressed }

// allowDirective extracts the rule list of one "lint:allow" comment line.
// Accepted forms: "//lint:allow rule", "//lint:allow rule1,rule2 — reason".
func allowDirective(text string) []string {
	const marker = "lint:allow"
	i := strings.Index(text, marker)
	if i < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[i+len(marker):])
	if rest == "" {
		return nil
	}
	// The rule list is the first whitespace-delimited token; anything after
	// (a dash, a reason) is commentary.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	var rules []string
	for _, r := range strings.Split(rest, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules
}

// registerSuppressions scans a package's comments for //lint:allow lines.
func (c *Checker) registerSuppressions(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				rules := allowDirective(cm.Text)
				if len(rules) == 0 {
					continue
				}
				p := c.fset.Position(cm.Pos())
				m := c.allowed[p.Filename]
				if m == nil {
					m = map[int][]string{}
					c.allowed[p.Filename] = m
				}
				m[p.Line] = append(m[p.Line], rules...)
			}
		}
	}
}

// Run executes every configured rule over every in-scope package and returns
// the findings sorted by position.
func Run(cfg Config, rules []Rule, pkgs []*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	c := NewChecker(cfg, pkgs[0].Fset)
	for _, pkg := range pkgs {
		c.registerSuppressions(pkg)
	}
	c.analysis = buildAnalysis(cfg, pkgs)
	for _, r := range rules {
		c.rule = r.Name()
		c.ranRules[r.Name()] = true
		for _, pkg := range pkgs {
			if cfg.Applies(r.Name(), pkg.ImportPath) {
				r.Check(c, pkg)
			}
		}
	}
	sort.Slice(c.findings, func(i, j int) bool {
		a, b := c.findings[i], c.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return c.findings
}

// AllRules returns the registry in stable (registration) order.
// unusedSuppression must stay last: it audits the hit log every other rule
// filled in.
func AllRules() []Rule {
	return []Rule{
		noWallclock{},
		orderedMapEmit{},
		floatEq{},
		scratchEscape{},
		goroutineSharedWrite{},
		handleRelease{},
		capepochGuard{},
		steadyAlloc{},
		lookaheadPositive{},
		unusedSuppression{},
	}
}

// DefaultConfig is the determinism contract of this repository: which rule
// guards which packages. Test files are always exempt (the loader does not
// feed them to rules); deliberate violations carry //lint:allow comments.
func DefaultConfig() Config {
	return Config{Rules: map[string]RuleConfig{
		// Simulation code runs on the virtual clock only: wall-clock reads
		// or the global rand source would make runs machine-dependent.
		"no-wallclock": {Include: []string{
			"llmbw/internal/sim", "llmbw/internal/fabric",
			"llmbw/internal/train", "llmbw/internal/runner",
			"llmbw/internal/scenario", "llmbw/internal/schedule",
			"llmbw/internal/serve",
		}},
		// Everything that serializes output must iterate maps in a sorted
		// order, or goldens stop being byte-identical.
		"ordered-map-emit": {Include: []string{
			"llmbw/internal/report", "llmbw/internal/train",
			"llmbw/internal/trace", "llmbw/internal/telemetry",
			"llmbw/internal/whatif", "llmbw/internal/stress",
			"llmbw/internal/topology", "llmbw/internal/collective",
			"llmbw/internal/scenario", "llmbw/internal/serve",
			"llmbw/cmd/...",
		}},
		// Exact float equality is only meaningful against constants; two
		// computed values need an epsilon (or an allow comment arguing why
		// bit-equality is intended).
		"float-eq": {},
		// The fabric recycles handoff transfer records, the collective
		// layer recycles compiled plans, and the schedule executor
		// recycles flow sets and re-arms stream issue records; handing a
		// pooled pointer across the exported API would let callers observe
		// reuse. Each type name binds in its own package's scope only.
		"scratch-escape": {
			Include: []string{
				"llmbw/internal/fabric", "llmbw/internal/collective",
				"llmbw/internal/schedule", "llmbw/internal/serve",
			},
			Options: map[string]string{
				"types": "Plan,flowSet,asyncIssue,handoffXfer",
			},
		},
		// Only internal/runner is allowed to coordinate real goroutines;
		// everywhere else a write to captured state from a go closure is a
		// data race waiting for -race to find it.
		"goroutine-shared-write": {Exclude: []string{"llmbw/internal/runner"}},
		// Compiled plans and handoff transfers must come back to their
		// free lists exactly once. Acquire roots are the pool pop sites;
		// release roots name which argument goes back (receiver is index
		// 0). Summaries extend both sets through callees.
		"handle-release": {
			Include: []string{
				"llmbw/internal/collective", "llmbw/internal/fabric",
				"llmbw/internal/train", "llmbw/internal/schedule",
				"llmbw/internal/serve",
			},
			Options: map[string]string{
				"acquire": "llmbw/internal/collective.Group.acquirePlan," +
					"llmbw/internal/fabric.Handoff.acquire",
				"release": "llmbw/internal/collective.Group.releasePlan@1," +
					"llmbw/internal/fabric.Handoff.recycle@1",
			},
		},
		// Capacity-derived values (link capacities, cached path caps) go
		// stale when SetCapacity bumps the epoch; reusing one without
		// recomputing reintroduces the bug the PathCap fence fixes.
		"capepoch-guard": {
			Include: []string{
				"llmbw/internal/collective", "llmbw/internal/fabric",
				"llmbw/internal/train", "llmbw/internal/whatif",
			},
			Options: map[string]string{
				"bump": "llmbw/internal/fabric.Network.SetCapacity",
				"derived": "llmbw/internal/fabric.Link.Capacity," +
					"llmbw/internal/fabric.PathCap.Value",
			},
		},
		// The replay hot paths are pinned at 0 allocs/op; //lint:steady
		// marks the entry points and this rule audits everything statically
		// reachable from them. //lint:cold fences pool-miss compile paths.
		"steady-alloc": {Include: []string{
			"llmbw/internal/sim", "llmbw/internal/fabric",
			"llmbw/internal/collective", "llmbw/internal/train",
			"llmbw/internal/scenario", "llmbw/internal/schedule",
			"llmbw/internal/serve", "llmbw/internal/telemetry",
		}},
		// Conservative PDES merge order and handoff wire hops rely on
		// strictly positive lookahead; a zero reaching NewSharded or
		// NewHandoff only surfaces as a panic (or a nondeterministic merge)
		// much later.
		"lookahead-positive": {
			Options: map[string]string{
				"sites": "llmbw/internal/sim.NewSharded@1," +
					"llmbw/internal/fabric.NewHandoff@3",
			},
		},
		// Every //lint:allow must still be earning its keep.
		"unused-suppression": {},
	}}
}
