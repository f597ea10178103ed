package sim

// Carriers is a free list of event-argument carriers. A hot path takes a
// carrier when it schedules a stage, passes it as the event's argument,
// and puts it back once the last stage has fired, so steady-state
// scheduling allocates nothing. The zero value is an empty list.
type Carriers[T any] struct{ free []*T }

// Get returns a recycled carrier, or a new one when none is free. Its
// fields are zero.
func (c *Carriers[T]) Get() *T {
	n := len(c.free)
	if n == 0 {
		return new(T)
	}
	x := c.free[n-1]
	c.free = c.free[:n-1]
	return x
}

// Put zeroes x, so the list retains none of its references, and
// recycles it.
func (c *Carriers[T]) Put(x *T) {
	var zero T
	*x = zero
	c.free = append(c.free, x)
}
