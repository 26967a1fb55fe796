// Command quickstart is the five-minute tour: compile one benchmark
// stand-in, encode it under every scheme, and run the three IFetch
// organizations of the paper — printing the code-size and
// delivered-performance tradeoff that is the paper's whole story.
package main

import (
	"io"
	"log"
	"os"

	ccc "repro"
	"repro/internal/cliio"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run holds the example body, writing to out (tested by main_test.go).
func run(out io.Writer) error {
	w := cliio.New(out)
	const bench = "compress"
	c, err := ccc.CompileBenchmark(bench)
	if err != nil {
		return err
	}
	w.Printf("benchmark %q: %d ops in %d blocks, %.2f ops/MOP after scheduling\n\n",
		bench, c.Prog.TotalOps(), len(c.Prog.Blocks), c.Prog.Density())

	// Code size under every encoding scheme (the paper's Figure 5 axis).
	base, err := c.Image("base")
	if err != nil {
		return err
	}
	w.Println("scheme      code bytes   of original")
	for _, scheme := range ccc.SchemeNames() {
		im, err := c.Image(scheme)
		if err != nil {
			return err
		}
		w.Printf("%-10s  %10d   %10.1f%%\n", scheme, im.CodeBytes, 100*im.Ratio(base))
	}

	// Delivered performance under the three IFetch organizations (the
	// paper's Figure 13 axis). The cache holds what the scheme produces:
	// original ops for Base, Huffman bits for Compressed, tailored ops
	// for Tailored.
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
	// One walk of the trace feeds all three simulators.
	st, err := c.StreamTrace(200000, 0)
	if err != nil {
		return err
	}
	results, err := ccc.RunStream(st, sims...)
	if err != nil {
		return err
	}
	w.Printf("\ntrace: %d blocks, %d ops\n\n", results[0].BlockFetches, results[0].Ops)
	w.Println("organization  scheme    IPC    miss   mispredict")
	for i, r := range results {
		w.Printf("%-12s  %-8s  %.3f  %4.1f%%  %4.1f%%\n",
			pairings[i].Org, pairings[i].CacheScheme, r.IPC(), 100*r.MissRate(), 100*r.MispredictRate())
	}
	w.Println("\nNote how the ROM shrinks to a third under the full scheme while")
	w.Println("delivered IPC stays within a few percent of the uncompressed baseline.")
	return w.Err()
}
