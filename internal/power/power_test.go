package power

import "testing"

func TestTransferCountsFlips(t *testing.T) {
	b := NewBus(2)
	b.Transfer([]byte{0xff, 0x00}) // from 00 00: 8 flips
	if b.Flips != 8 || b.Beats != 1 {
		t.Errorf("flips/beats = %d/%d, want 8/1", b.Flips, b.Beats)
	}
	b.Transfer([]byte{0xff, 0x00}) // identical: 0 flips
	if b.Flips != 8 || b.Beats != 2 {
		t.Errorf("identical beat flipped lines: %d", b.Flips)
	}
	b.Transfer([]byte{0x00, 0xff}) // all 16 lines flip
	if b.Flips != 24 {
		t.Errorf("flips = %d, want 24", b.Flips)
	}
}

func TestTransferSplitsBeats(t *testing.T) {
	b := NewBus(4)
	b.Transfer(make([]byte, 10)) // 3 beats (4+4+2)
	if b.Beats != 3 {
		t.Errorf("beats = %d, want 3", b.Beats)
	}
	if b.Bytes != 10 {
		t.Errorf("bytes = %d, want 10", b.Bytes)
	}
}

func TestPartialBeatZeroPads(t *testing.T) {
	b := NewBus(2)
	b.Transfer([]byte{0xff, 0xff})
	b.Transfer([]byte{0xff}) // second lane drops to 0: 8 flips
	if b.Flips != 16+8 {
		t.Errorf("flips = %d, want 24", b.Flips)
	}
}

func TestDefaults(t *testing.T) {
	b := NewBus(0)
	if b.Width() != DefaultBusBytes {
		t.Errorf("width = %d, want %d", b.Width(), DefaultBusBytes)
	}
	if b.FlipsPerBeat() != 0 {
		t.Error("FlipsPerBeat on idle bus should be 0")
	}
	b.Transfer([]byte{0x0f})
	if b.FlipsPerBeat() != 4 {
		t.Errorf("FlipsPerBeat = %g, want 4", b.FlipsPerBeat())
	}
}
