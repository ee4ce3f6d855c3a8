// Fixture for the fence pass's raw-construction rows, type-checked
// against the real internal/flow and internal/mpi packages (the loader
// resolves module imports from source): raw construction of the
// arena-managed types is a violation here because this package is not
// their owner.
package arenaalloc

import (
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/mpi"
)

func badLiteral() *flow.Flow {
	return &flow.Flow{} // want "composite literal of arena-managed type flow.Flow"
}

func badValueLiteral() flow.Flow {
	return flow.Flow{} // want "composite literal of arena-managed type flow.Flow"
}

func badNew() *mpi.Request {
	return new(mpi.Request) // want "new\(\) of arena-managed type mpi.Request"
}

func badVar() {
	var r mpi.Request // want "zero-value var of arena-managed type mpi.Request"
	_ = r
}

// Pointer declarations only hold instances; they are fine.
func goodPtrVar(reqs []*mpi.Request) *mpi.Request {
	var last *mpi.Request
	for _, r := range reqs {
		last = r
	}
	return last
}

// The owning constructors are the sanctioned sources.
func goodConstructor(w *mpi.World) *mpi.Request {
	return w.NewRequest()
}

// The escape hatch is a reviewed debt marker, not an off switch.
func allowedLiteral() *mpi.Request {
	//hanlint:allow fence test fixture exercising the escape hatch
	return &mpi.Request{}
}

func shadowedNew() {
	new := func(n int) int { return n }
	_ = new(3)
}
