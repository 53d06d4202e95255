//go:build poison

package wire

import "reflect"

// Poison: see poison_off.go.
const Poison = true

// poisonMsg overwrites every field of a decoded body: scalars are set to
// repeated 0xDB bytes; slices are detached, not written through — Decode
// makes them afresh for each message, so they are not what recycling
// reuses, and a page among them may by now be a live frame.
func poisonMsg(m Msg) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			f.SetZero()
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(0xDBDBDBDBDBDBDBDB >> (64 - f.Type().Bits()))
		case reflect.Int64:
			f.SetInt(-0x2424242424242425) // 0xDBDB… as a signed word
		default:
			panic("wire: poisonMsg does not know field kind " + f.Kind().String())
		}
	}
}
