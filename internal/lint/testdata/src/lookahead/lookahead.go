// Package lookahead exercises the lookahead-positive rule: configured call
// sites must receive provably positive values.
package lookahead

type Time int64

const Nanosecond Time = 1

const wire = 5 * Nanosecond

type Engine struct{ edges int }

// Link is the configured site (argument index 2).
func (e *Engine) Link(from, to int, lookahead Time) {
	if lookahead < Nanosecond {
		panic("lookahead must be positive")
	}
	e.edges++
}

// Good passes a positive constant.
func Good(e *Engine) {
	e.Link(0, 1, wire)
}

// GoodArith passes an arithmetic combination of positives.
func GoodArith(e *Engine) {
	e.Link(0, 1, wire*2+Nanosecond)
}

// GoodTraced traces a local back to a positive constant.
func GoodTraced(e *Engine) {
	l := wire * 2
	e.Link(0, 1, l)
}

// defaultLook returns a provably positive value.
func defaultLook() Time { return 4 * Nanosecond }

// GoodCall trusts the callee's all-returns-positive summary.
func GoodCall(e *Engine) {
	e.Link(0, 1, defaultLook())
}

// GoodParam is protected by a dominating guard.
func GoodParam(e *Engine, look Time) {
	if look < Nanosecond {
		panic("bad lookahead")
	}
	e.Link(0, 1, look)
}

type Config struct{ Look Time }

// NewConfig is the only writer of Config.Look in this module.
func NewConfig() Config { return Config{Look: 8 * Nanosecond} }

// GoodField relies on the whole-module field write audit.
func GoodField(e *Engine, c Config) {
	e.Link(0, 1, c.Look)
}

// BadZero passes a zero constant.
func BadZero(e *Engine) {
	e.Link(0, 1, 0) // want lookahead-positive
}

// BadParam passes an unguarded parameter.
func BadParam(e *Engine, look Time) {
	e.Link(0, 1, look) // want lookahead-positive
}

// BadDiff passes a difference, which positivity cannot see through.
func BadDiff(e *Engine, a Time) {
	e.Link(0, 1, wire-a) // want lookahead-positive
}

// AllowedDynamic defers validation to the caller's parser.
func AllowedDynamic(e *Engine, look Time) {
	e.Link(0, 1, look) //lint:allow lookahead-positive — validated by the config parser upstream
}
