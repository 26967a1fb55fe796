package verify

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/image"
)

// FuzzVerifyImage feeds mutated encoded images through the image pass:
// whatever the bytes, the verifier must come back with a report — never a
// panic. This is the property that makes it safe to run over untrusted
// or corrupted ROMs.
func FuzzVerifyImage(f *testing.F) {
	sp := cleanSched()
	enc, err := compress.NewFullHuffman(sp)
	if err != nil {
		f.Fatal(err)
	}
	im, err := image.Build(sp, enc)
	if err != nil {
		f.Fatal(err)
	}
	if im.ATT, err = image.BuildATT(sp, im); err != nil {
		f.Fatal(err)
	}

	f.Add(im.Data)            // pristine image
	f.Add([]byte{})           // empty ROM
	f.Add([]byte{0xFF, 0x00}) // truncated garbage
	f.Add(im.Data[:len(im.Data)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		mutated := *im
		mutated.Data = data
		mutated.CodeBytes = len(data)
		rep := Image(&mutated, sp, enc, ImageOpts{RequireATT: true})
		// The pristine seed must verify clean; anything else just reports.
		if string(data) == string(im.Data) && !rep.OK() {
			t.Errorf("pristine image flagged: %v", rep.Diags)
		}
	})
}
