//go:build !pooldebug

package pool

// DebugEnabled reports whether the pooldebug build tag is active. Guard
// calls in the arena are gated on this constant, so normal builds
// compile the lifecycle checks away entirely.
const DebugEnabled = false

// guard is the release-checking hook set. In normal builds it carries no
// state and its methods are never reached.
type guard struct{}

func (guard) init()          {}
func (guard) onGrow(any)     {}
func (guard) onGet(any)      {}
func (guard) onPut(any) bool { return false }
