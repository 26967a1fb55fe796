package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunSingleFigure(t *testing.T) {
	out := benchOut(t, "-fig", "5", "-benchmarks", "compress")
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "compress") {
		t.Errorf("figure 5 output incomplete:\n%s", out)
	}
	if strings.Contains(out, "Figure 13") {
		t.Error("unrequested figure rendered")
	}
}

func TestRunFigure13Short(t *testing.T) {
	out := benchOut(t, "-fig", "13", "-benchmarks", "compress", "-blocks", "20000")
	for _, want := range []string{"Figure 13", "Ideal", "Compressed", "Tailored"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunSweeps(t *testing.T) {
	cases := map[string]string{
		"streams":     "Stream configuration exploration",
		"dict":        "dictionary",
		"speculation": "speculation study",
		"superblocks": "Complex fetch units",
		"layout":      "code layout",
	}
	for sweep, want := range cases {
		out := benchOut(t, "-sweep", sweep, "-benchmarks", "compress", "-blocks", "20000")
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("sweep %s: missing %q:\n%s", sweep, want, out)
		}
	}
}

func TestRunPredictorSweep(t *testing.T) {
	out := benchOut(t, "-sweep", "predictors", "-benchmarks", "compress", "-blocks", "20000")
	for _, want := range []string{"bimodal", "gshare", "perfect"} {
		if !strings.Contains(out, want) {
			t.Errorf("predictor sweep missing %q", want)
		}
	}
}

func TestRunJSONReportAndCheck(t *testing.T) {
	dir := t.TempDir()
	jsonFile := filepath.Join(dir, "BENCH_fig5.json")
	out := benchOut(t, "-fig", "5", "-benchmarks", "compress", "-par", "2",
		"-json", jsonFile, "-check", "-warm")
	if !strings.Contains(out, "decode check: all built images decode back") {
		t.Errorf("decode check summary missing:\n%s", out)
	}
	if !strings.Contains(out, "warm re-run:") {
		t.Errorf("warm re-run summary missing:\n%s", out)
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Tool != "tepicbench" || rep.Figure != "5" || rep.Parallelism != 2 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0] != "compress" {
		t.Errorf("report benchmarks = %v", rep.Benchmarks)
	}
	if rep.WallMS <= 0 || rep.BytesBase <= 0 || rep.BytesEncoded <= 0 || rep.BytesPerSec <= 0 {
		t.Errorf("report missing throughput data: %+v", rep)
	}
	if len(rep.Stages) == 0 {
		t.Error("report has no stage timings")
	}
	if rep.CacheMisses == 0 {
		t.Error("cold run recorded no cache misses")
	}
	if rep.WarmHitRate < 0.9 {
		t.Errorf("warm hit rate %.2f; want >= 0.9", rep.WarmHitRate)
	}
	if !rep.DecodeChecked || !rep.DecodeOK {
		t.Errorf("decode check not recorded: %+v", rep)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "99"}, &sb); err == nil {
		t.Error("accepted unknown figure")
	}
	if err := run([]string{"-sweep", "nonesuch"}, &sb); err == nil {
		t.Error("accepted unknown sweep")
	}
	if err := run([]string{"-benchmarks", "nonesuch", "-fig", "5"}, &sb); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

func TestRunServeMode(t *testing.T) {
	dir := t.TempDir()
	jsonFile := filepath.Join(dir, "BENCH_serve.json")
	out := benchOut(t, "-serve", "-benchmarks", "compress,go", "-par", "2",
		"-serveworkers", "2", "-serverequests", "6", "-check",
		"-json", jsonFile, "-servemin", "0.1")
	for _, want := range []string{
		"service benchmark: in-process tepicd on http://127.0.0.1:",
		"fleet: 2 workers x 6 requests",
		"decode audit:",
		"bit-identical to the direct pipeline",
		"artifact store:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serve output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep serveReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("serve report is not valid JSON: %v", err)
	}
	if rep.Tool != "tepicbench" || rep.Mode != "serve" {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.Fleet == nil || rep.Fleet.Requests != 12 || rep.Fleet.Errors != 0 {
		t.Errorf("fleet tally wrong: %+v", rep.Fleet)
	}
	if rep.Fleet.RequestsPerSec <= 0 || rep.Fleet.P99MS < rep.Fleet.P50MS {
		t.Errorf("fleet latency stats wrong: %+v", rep.Fleet)
	}
	if rep.CacheHits+rep.CacheMisses == 0 || rep.CacheHitRate <= 0 {
		t.Errorf("artifact store traffic missing: %+v", rep)
	}
	if !rep.DecodeChecked || !rep.DecodeOK || rep.DecodeAudited == 0 {
		t.Errorf("decode audit not recorded: %+v", rep)
	}
}

func TestRunStreamMode(t *testing.T) {
	dir := t.TempDir()
	jsonFile := filepath.Join(dir, "BENCH_stream.json")
	out := benchOut(t, "-stream", "-benchmarks", "compress", "-ops", "2000000",
		"-check", "-json", jsonFile,
		"-streammin", "0.1", "-streammaxmb", "512")
	for _, want := range []string{
		"stream benchmark compress/Compressed",
		"997-event chunks == default chunks: every counter identical",
		"Mops/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stream output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep streamReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("stream report is not valid JSON: %v", err)
	}
	if rep.Tool != "tepicbench" || rep.Mode != "stream" {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 || rep.GoVersion == "" || rep.Commit == "" {
		t.Errorf("report missing host metadata: %+v", rep)
	}
	if rep.Ops < 2000000 || rep.Events <= 0 || rep.Cycles <= 0 || rep.MopsPerSec <= 0 {
		t.Errorf("report missing run data: %+v", rep)
	}
	if !rep.SeqIdentical {
		t.Errorf("rechunked replay diverged: %+v", rep)
	}
	if !rep.OracleChecked || !rep.OracleOK {
		t.Errorf("oracle check not recorded: %+v", rep)
	}
}

func TestRunStreamModeRatchets(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-stream", "-benchmarks", "compress", "-ops", "100000",
		"-streammin", "1e12"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "below minimum") {
		t.Errorf("throughput ratchet did not trip: %v", err)
	}
	if err := run([]string{"-stream", "-streampairing", "warp-drive"}, &sb); err == nil {
		t.Error("accepted unknown pairing")
	}
}

func TestRunServeModeRatchet(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-serve", "-benchmarks", "compress",
		"-serveworkers", "1", "-serverequests", "2", "-servemin", "1e12"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "below minimum") {
		t.Errorf("throughput ratchet did not trip: %v", err)
	}
	if err := run([]string{"-serve", "-benchmarks", "compress", "-servemix", "teleport"}, &sb); err == nil {
		t.Error("accepted unknown mix endpoint")
	}
}
