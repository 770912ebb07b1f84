package core

// Memo is inert: core keeps no compile cache of its own, and
// CompileContext ignores Config.Memo. The compile caches live with
// their callers — the service's response cache and the fleet's compile
// cache — keyed by the certificate of the canonical assay. The type
// stays so that code built against it still compiles.
type Memo struct{}

// NewMemo returns an inert Memo; capacity is ignored.
func NewMemo(capacity int) *Memo { return &Memo{} }
