package cache

// idLLC drives an LLC by buffer ID, the way the tests were first written:
// it keeps the Ref each buffer's insert returned, keyed by ID, and reads
// through it. Every ID maps to at most one live line, so the behaviour is
// that of an ID-keyed cache whatever the ID sequence.
type idLLC struct {
	*LLC
	refs map[BufID]*Ref
}

func newIDLLC(capacity int64) *idLLC {
	return &idLLC{LLC: NewLLC(capacity), refs: map[BufID]*Ref{}}
}

// ref returns id's handle slot, creating an empty one.
func (c *idLLC) ref(id BufID) *Ref {
	r := c.refs[id]
	if r == nil {
		r = new(Ref)
		c.refs[id] = r
	}
	return r
}

func (c *idLLC) InsertIO(id BufID, size int64) []Evicted {
	return c.InsertIOSized(0, id, size, size)
}

func (c *idLLC) InsertIOIn(part int, id BufID, size int64) []Evicted {
	return c.InsertIOSized(part, id, size, size)
}

func (c *idLLC) InsertIOSized(part int, id BufID, size, payload int64) []Evicted {
	return c.LLC.InsertIOSized(part, c.ref(id), id, size, payload)
}

func (c *idLLC) TouchState(part int, id BufID, size int64) (bool, []Evicted) {
	return c.LLC.TouchState(part, c.ref(id), id, size)
}

func (c *idLLC) Resident(id BufID) bool            { return c.LLC.Resident(*c.ref(id)) }
func (c *idLLC) Consume(id BufID) bool             { return c.ConsumeIn(0, id) }
func (c *idLLC) ConsumeIn(part int, id BufID) bool { return c.LLC.ConsumeIn(part, *c.ref(id)) }
func (c *idLLC) Peek(id BufID) bool                { return c.PeekIn(0, id) }
func (c *idLLC) PeekIn(part int, id BufID) bool    { return c.LLC.PeekIn(part, *c.ref(id)) }
func (c *idLLC) Probe(id BufID) bool               { return c.ProbeIn(0, id) }
func (c *idLLC) ProbeIn(part int, id BufID) bool   { return c.LLC.ProbeIn(part, *c.ref(id)) }
func (c *idLLC) Drop(id BufID)                     { c.LLC.Drop(*c.ref(id)) }
