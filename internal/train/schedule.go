package train

import "llmbw/internal/schedule"

// Every training iteration runs as a compiled schedule.Schedule: a typed op
// list with explicit stream dependencies and phase tags, lowered once per
// configuration and replayed every iteration through the shared
// internal/schedule executor with pooled flows and collective plans and
// re-armed stream latches, so steady-state iterations allocate nothing. The schedule IR itself — the
// op vocabulary, rewrites and the executor — lives in internal/schedule;
// train's per-strategy compilers (compile.go) are one client of it. The
// rewrite vocabulary is re-exported here so Config.Rewrite call sites keep
// reading train.RewriteSerializeComm.

// Rewrite selects a schedule-level ablation applied after compilation; see
// schedule.Rewrite.
type Rewrite = schedule.Rewrite

// Supported rewrites.
const (
	RewriteNone          = schedule.RewriteNone
	RewriteSerializeComm = schedule.RewriteSerializeComm
)
