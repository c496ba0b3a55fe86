package a

// compiled mirrors the registry's compiled graph: a slot-indexed array and
// a walk order, published by pointer and patched from one version to the
// next.
//
//sdp:immutable
type compiled struct {
	vertices []int
	order    []int
}

// current is the publication point: what readers load.
var current = &compiled{}

// clonePatched is the patch discipline: flat-copy the previous version,
// edit the private copy, hand it out. Every write sits inside the clone*
// constructor, before anything else can see the value.
func clonePatched(prev *compiled, slot, value int) *compiled {
	c := &compiled{vertices: make([]int, len(prev.vertices)), order: append([]int(nil), prev.order...)}
	copy(c.vertices, prev.vertices)
	c.vertices[slot] = value
	c.order = append(c.order, slot)
	return c
}

// publishPatched clones, edits and publishes: no finding.
func publishPatched(slot, value int) {
	current = clonePatched(current, slot, value)
}

// publishThenPatch edits the value it has just published: readers may
// already hold it.
func publishThenPatch(slot, value int) {
	next := clonePatched(current, slot, value)
	current = next
	next.vertices[slot] = value // want `write to field vertices of //sdp:immutable type compiled outside a construction`
	next.order = nil            // want `write to field order of //sdp:immutable type compiled`
}

// patchInPlace skips the copy altogether.
func patchInPlace(slot, value int) {
	current.vertices[slot] = value // want `write to field vertices of //sdp:immutable type compiled`
}
