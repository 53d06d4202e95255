//go:build !poison

package wire

// Poison reports whether this is a `-tags poison` build: a checking mode
// in the manner of -race, under which every buffer of the message path —
// payload, page buffer, decoded envelope and body, the ring's in-flight
// record — is overwritten with 0xDB and dropped at the moment it would
// otherwise be recycled. A holder that kept one past its release then
// reads poison instead of the next message, and the suite (or the
// output of `ivybench -chaos`, which must not change) shows it.
const Poison = false

func poisonMsg(Msg) {}
