package sim

import "fmt"

// label is diagnostic text kept as data: a fmt format and up to three
// operands — ints and at most one string — copied out of the caller's
// argument list and rendered only when a report asks for it. Fiber names
// and park reasons are labels, so a remote request names its handler
// fiber and a blocked fiber states what it waits for without running
// fmt or allocating; the deadlock error, Parked and lock-holder
// diagnostics pay for the text they print. A label without operands is
// its format verbatim (never interpreted, so a literal % is safe).
type label struct {
	format string
	str    string
	ints   [2]int
	strAt  int8 // position of str among the operands; -1 when there is none
	n      uint8
}

// set stores format and copies the operands out of args. Copying (rather
// than keeping the interface values) is what lets the caller's argument
// slice, and the boxed operands in it, stay on its stack.
func (l *label) set(format string, args []any) {
	l.format, l.str, l.strAt, l.n = format, "", -1, uint8(len(args))
	ni := 0
	for i, a := range args {
		switch v := a.(type) {
		case int:
			if ni == len(l.ints) {
				panic("sim: label takes at most two integer operands")
			}
			l.ints[ni] = v
			ni++
		case string:
			if l.strAt >= 0 {
				panic("sim: label takes at most one string operand")
			}
			l.str, l.strAt = v, int8(i)
		default:
			// A constant message: handing a itself to fmt would make every
			// caller's operands escape to the heap.
			panic("sim: label operands must be int or string")
		}
	}
}

// setText stores a label without operands; small enough to inline into
// Sleep, the engine's hottest caller.
func (l *label) setText(text string) { l.format, l.n = text, 0 }

func (l *label) String() string {
	if l.n == 0 {
		return l.format
	}
	var ops [len(l.ints) + 1]any
	ni := 0
	for i := range ops[:l.n] {
		if int8(i) == l.strAt {
			ops[i] = l.str
		} else {
			ops[i] = l.ints[ni]
			ni++
		}
	}
	return fmt.Sprintf(l.format, ops[:l.n]...)
}
