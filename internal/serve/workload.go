package serve

import (
	"math"

	"llmbw/internal/sim"
)

// unreleased marks a closed-loop request that has not been released yet; a
// completion rewrites it with the release time.
const unreleased = sim.Time(math.MaxInt64)

// request is the lifetime record of one inference request. The slice of
// requests is allocated once before the simulation starts; the steady serving
// loops only mutate fields in place.
type request struct {
	id      int
	arrival sim.Time // enters the system (unreleased for pending closed-loop)
	prompt  int      // prompt tokens
	decode  int      // tokens to generate

	admit   sim.Time // prefill admission
	first   sim.Time // first output token emitted (end of prefill [+KV ship])
	done    sim.Time // last token emitted
	decoded int      // tokens generated so far
	kv      float64  // per-GPU KV bytes reserved while resident
}

// ttft returns the time-to-first-token of a completed request.
func (r *request) ttft() sim.Time { return r.first - r.arrival }

// tbt returns the mean time-between-tokens of a completed request (0 for
// single-token generations).
func (r *request) tbt() sim.Time {
	if r.decode <= 1 {
		return 0
	}
	return (r.done - r.first) / sim.Time(r.decode-1)
}

// rng is splitmix64: tiny, deterministic and identical on every platform, so
// generated workloads are part of the byte-stable scenario contract.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0,1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// exp returns an exponential draw with the given mean.
func (r *rng) exp(mean float64) float64 {
	return -mean * math.Log(1-r.float())
}

// tokens draws a length uniformly in [mean/2, 3·mean/2], never below 1. A
// bounded spread keeps per-request KV footprints within the capacity bound
// that Validate checks while still spanning several prompt buckets.
func (r *rng) tokens(mean int) int {
	lo := mean / 2
	if lo < 1 {
		lo = 1
	}
	n := lo + int(r.float()*float64(mean))
	if n < 1 {
		n = 1
	}
	return n
}

// generate materializes the full request sequence of the scenario up front.
// Everything downstream (admission, batching, completion) consumes this fixed
// deterministic sequence, so a run is a pure function of the Config.
func generate(cfg Config) []request {
	reqs := make([]request, cfg.Requests)
	r := rng{s: cfg.Seed}
	var at sim.Time
	for i := range reqs {
		q := &reqs[i]
		q.id = i
		switch cfg.Arrival {
		case OpenLoop:
			at += sim.Seconds(r.exp(1 / cfg.RatePerSec))
			q.arrival = at
		case ClosedLoop:
			if i < cfg.Concurrency {
				q.arrival = 0
			} else {
				q.arrival = unreleased
			}
		case TraceDriven:
			q.arrival = cfg.Trace[i].At
		}
		if cfg.Arrival == TraceDriven {
			q.prompt = max(1, cfg.Trace[i].PromptTokens)
			q.decode = max(1, cfg.Trace[i].DecodeTokens)
		} else {
			q.prompt = r.tokens(cfg.PromptTokens)
			q.decode = r.tokens(cfg.DecodeTokens)
		}
	}
	return reqs
}
