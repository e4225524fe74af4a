package codec

import (
	"crypto/sha256"
	"fmt"

	"jrpm/internal/bytecode"
)

// EncodeProgram renders a program in canonical wire form. The layout is
// three length-prefixed sections behind the envelope:
//
//	meta    name, statics, main
//	methods per method: id, name, nargs, nlocals, hasResult, code, handlers
//	classes per class: id, name, numFields
func EncodeProgram(p *bytecode.Program) []byte {
	return encode(KindProgram, p, (*coder).program)
}

// DecodeProgram parses a canonical program encoding. Malformed input
// returns an error wrapping one of the typed sentinels; it never panics.
func DecodeProgram(b []byte) (*bytecode.Program, error) {
	p := &bytecode.Program{}
	if err := decode(b, KindProgram, p, (*coder).program); err != nil {
		return nil, err
	}
	// Structural floor so a decoded program cannot crash downstream
	// consumers that index Methods[Main] unconditionally.
	if p.Main < 0 || p.Main >= len(p.Methods) {
		return nil, fmt.Errorf("%w: main method %d of %d", ErrCorrupt, p.Main, len(p.Methods))
	}
	return p, nil
}

// ProgramHash is the content address of a program: SHA-256 over its
// canonical encoding. Equal programs hash equally in every process — the
// encoding has no map-order or pointer-identity dependence.
func ProgramHash(p *bytecode.Program) Hash {
	return sha256.Sum256(EncodeProgram(p))
}

func (c *coder) program(p *bytecode.Program) {
	s := c.open()
	c.str(&p.Name)
	c.int(&p.Statics)
	c.int(&p.Main)
	c.close(s, "program meta")

	s = c.open()
	list(c, &p.Methods, 6, (*coder).method)
	c.close(s, "program methods")

	s = c.open()
	list(c, &p.Classes, 3, func(c *coder, pc **bytecode.Class) {
		cl := ptr(c, pc)
		c.int(&cl.ID)
		c.str(&cl.Name)
		c.int(&cl.NumFields)
	})
	c.close(s, "program classes")
}

func (c *coder) method(pm **bytecode.Method) {
	m := ptr(c, pm)
	c.int(&m.ID)
	c.str(&m.Name)
	c.int(&m.NArgs)
	c.int(&m.NLocals)
	c.bool(&m.HasResult)
	list(c, &m.Code, 3, func(c *coder, in *bytecode.Ins) {
		c.byte((*byte)(&in.Op))
		c.i64(&in.A)
		c.i64(&in.B)
	})
	list(c, &m.Handlers, 4, func(c *coder, h *bytecode.Handler) {
		c.int(&h.Start)
		c.int(&h.End)
		c.int(&h.Target)
		c.i64(&h.Kind)
	})
}
