// Command explore shows the compiler-driven design loop the paper
// advocates: given a *custom* embedded workload (not one of the eight
// SPECint95 stand-ins), sweep the stream-alphabet configurations and the
// other schemes, and pick an encoding by the code-size vs decoder-cost
// tradeoff — the paper's Figure 5 × Figure 10 plane.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	ccc "repro"
	"repro/internal/cliio"
	"repro/internal/declogic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run holds the example body, writing to out (tested by main_test.go).
func run(out io.Writer) error {
	w := cliio.New(out)
	// A hypothetical engine-controller workload: small, loop-heavy,
	// highly biased branches, almost no floating point.
	prof := ccc.Profile{
		Name: "engine-ctrl", Seed: 424242,
		Funcs: 10, RegionsPerFunc: [2]int{4, 8}, OpsPerBlock: [2]int{4, 10},
		LoopDepthMax: 2, LoopFrac: 0.34, DiamondFrac: 0.40, CallFrac: 0.08,
		AvgTrip: 20, BiasedFrac: 0.8, BiasedProb: 0.95,
		DynBlocks: 200000, Phases: 1,
		FPFrac: 0.01, MemFrac: 0.28, CmpFrac: 0.06, LdiFrac: 0.12,
		PredGuardFrac: 0.08, WorkingSet: 10, ImmPool: 32,
	}
	c, err := ccc.CompileProfile(prof)
	if err != nil {
		return err
	}
	base, err := c.Image("base")
	if err != nil {
		return err
	}
	w.Printf("workload %q: %d ops, base image %d bytes\n\n",
		prof.Name, c.Prog.TotalOps(), base.CodeBytes)

	w.Println("scheme      size(of base)  decoder(log10 T)  ROM incl. ATT")
	for _, scheme := range ccc.SchemeNames() {
		if scheme == "base" {
			continue
		}
		im, err := c.Image(scheme)
		if err != nil {
			return err
		}
		enc, err := c.Encoder(scheme)
		if err != nil {
			return err
		}
		dec := "PLA (tiny)"
		if tabs := enc.Tables(); len(tabs) > 0 {
			dec = fmt.Sprintf("%16.2f", declogic.ForTables(scheme, tabs).Log10Transistors())
		}
		w.Printf("%-10s  %12.1f%%  %16s  %8d B\n",
			scheme, 100*im.Ratio(base), dec, im.TotalBytes())
	}

	// Performance check of the chosen candidates under the real IFetch
	// model: a tailored ISA against the best Huffman scheme.
	var pairings []ccc.Pairing
	var sims []*ccc.Sim
	for _, name := range []string{"Base", "Compressed", "Tailored"} {
		p, _ := ccc.PairingByName(name)
		sim, err := c.SimFor(p, ccc.DefaultConfig(p.Org))
		if err != nil {
			return err
		}
		pairings, sims = append(pairings, p), append(sims, sim)
	}
	// One walk of the profile's default-length trace feeds all three.
	st, err := c.StreamTrace(0, 0)
	if err != nil {
		return err
	}
	results, err := ccc.RunStream(st, sims...)
	if err != nil {
		return err
	}
	w.Printf("\ntrace: %d blocks\n", results[0].BlockFetches)
	for i, r := range results {
		w.Printf("  %-10s -> IPC %.3f, bus bit flips %d\n", pairings[i].Org, r.IPC(), r.BitFlips)
	}
	w.Println("\nPick full compression if ROM dominates cost; pick the tailored")
	w.Println("ISA if decoder area and misprediction latency dominate (§7).")
	return w.Err()
}
