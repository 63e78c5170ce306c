// Command gen regenerates the checked-in corruption corpora from the
// exec01 recording, deterministically:
//
//   - testdata/corrupt/v2-<kind>.rlog — one known-bad container per
//     corruption kind (kinds whose damage always salvages may be
//     absent), consumed by the trace decode tests and the CLI
//     quarantine test;
//   - internal/trace/testdata/fuzz/FuzzDecodeV2/chaos-* — the same
//     corruptions and the intact container, seeding the decoder fuzzer;
//   - internal/isa/testdata/fuzz/FuzzDecode/chaos-flip-<i> — bit-flipped
//     instruction encodings seeding the instruction fuzzer.
//
// The legacy v1 corpora — testdata/corrupt/<kind>.rlog and
// internal/trace/testdata/fuzz/FuzzUnmarshal — are frozen: nothing
// writes v1 any more, so they are kept as checked in, not regenerated.
// So is testdata/corrupt/v2-retired-claim.rlog, a hand-made log whose
// one thread claims more instructions than the step budget allows.
//
// Run from the repo root: go run ./internal/chaos/gen
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	root := flag.String("root", ".", "repository root to write corpora under")
	seed := flag.Int64("seed", 1, "corruption seed")
	flag.Parse()

	s, err := workloads.FindScenario("exec01")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := s.Program()
	if err != nil {
		log.Fatal(err)
	}
	rlog, _, err := record.Run(prog, s.Config())
	if err != nil {
		log.Fatal(err)
	}
	container := trace.MarshalV2(rlog)
	corruptDir := filepath.Join(*root, "testdata", "corrupt")
	fuzzDir := filepath.Join(*root, "internal", "trace", "testdata", "fuzz", "FuzzDecodeV2")
	for _, dir := range []string{corruptDir, fuzzDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	// Corruptions that confine their damage to one thread segment
	// salvage instead of failing, so KnownBad may skip a kind; consumers
	// glob.
	for kind, data := range chaos.KnownBad(container, *seed) {
		path := filepath.Join(corruptDir, "v2-"+kind.String()+".rlog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		if err := writeSeed(filepath.Join(fuzzDir, "chaos-"+kind.String()), data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
	if err := writeSeed(filepath.Join(fuzzDir, "chaos-intact"), container); err != nil {
		log.Fatal(err)
	}

	// Instruction fuzzer seeds: encoded instructions with one bit flipped.
	isaDir := filepath.Join(*root, "internal", "isa", "testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(isaDir, 0o755); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < 8 && i < len(prog.Code); i++ {
		enc := isa.Encode(nil, prog.Code[i*len(prog.Code)/8])
		enc[rng.Intn(len(enc))] ^= 1 << rng.Intn(8)
		if err := writeSeed(filepath.Join(isaDir, fmt.Sprintf("chaos-flip-%d", i)), enc); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote fuzz seeds under %s and %s\n", fuzzDir, isaDir)
}

// writeSeed writes one corpus entry in the `go test fuzz v1` format.
func writeSeed(path string, data []byte) error {
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	return os.WriteFile(path, []byte(body), 0o644)
}
