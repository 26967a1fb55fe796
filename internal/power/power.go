// Package power models memory-bus energy the way the paper's Figure 14
// does: by counting the number of bus lines that *flip* between
// consecutive transfers ("power is modeled by counting the number of
// transactions on the memory bus when bits are flipped"). Fewer bytes
// fetched per delivered instruction means fewer beats and fewer flips —
// which is how the compressed schemes save power even before any
// circuit-level modeling.
package power

import "math/bits"

// DefaultBusBytes is the modeled memory bus width.
const DefaultBusBytes = 8

// Bus tracks bit-flip activity on a memory bus of fixed byte width.
type Bus struct {
	width int
	last  []byte

	Beats int64 // total bus transactions
	Flips int64 // total bit transitions across all beats
	Bytes int64 // total payload bytes transferred
}

// NewBus returns a bus of the given width in bytes (<= 0 selects
// DefaultBusBytes). The bus starts with all lines at zero.
func NewBus(widthBytes int) *Bus {
	if widthBytes <= 0 {
		widthBytes = DefaultBusBytes
	}
	return &Bus{width: widthBytes, last: make([]byte, widthBytes)}
}

// Width returns the bus width in bytes.
func (b *Bus) Width() int { return b.width }

// Transfer sends a payload over the bus in width-sized beats (the final
// beat is zero-padded) and accumulates flip counts against the previous
// beat left on the lines.
func (b *Bus) Transfer(data []byte) {
	for off := 0; off < len(data); off += b.width {
		end := off + b.width
		if end > len(data) {
			end = len(data)
		}
		beat := data[off:end]
		for i := 0; i < b.width; i++ {
			var cur byte
			if i < len(beat) {
				cur = beat[i]
			}
			b.Flips += int64(bits.OnesCount8(cur ^ b.last[i]))
			b.last[i] = cur
		}
		b.Beats++
		b.Bytes += int64(end - off)
	}
}

// Counts returns the cumulative beats, bit flips and payload bytes — the
// cache package's BusModel accounting face.
func (b *Bus) Counts() (beats, flips, bytes int64) {
	return b.Beats, b.Flips, b.Bytes
}

// FlipsPerBeat returns the average bit transitions per bus transaction.
func (b *Bus) FlipsPerBeat() float64 {
	if b.Beats == 0 {
		return 0
	}
	return float64(b.Flips) / float64(b.Beats)
}
