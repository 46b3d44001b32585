// Command worldgen generates a synthetic Internet and dumps it as JSON:
// metros, facilities, IXPs (with switch fabrics), ASes, routers,
// interfaces, memberships and interconnection links. The dump loads back
// with world.DecodeJSON, so topologies can be authored or post-processed
// externally and fed to the full pipeline.
//
// Usage:
//
//	worldgen [-profile small|medium|default|paper|large] [-seed N] [-summary]
//	worldgen -check dump.json   # validate + summarise an existing dump
//	worldgen -churn N ...       # emit an N-record delta log instead
//	worldgen -churn N -out F    # append the log to F (tailable by cfsd -follow)
//
// -churn N emits a reproducible JSONL delta log — facility-list edits,
// IXP membership changes, BGP sessions coming and going, cross-connects
// appearing and vanishing — drawn against the generated world. The log
// replays into a running pipeline via cfsmap -deltas, or onto the world
// itself with delta.ApplyToWorld (observation-layer records skipped).
package main

import (
	"flag"
	"fmt"
	"os"

	"facilitymap/internal/delta"
	"facilitymap/internal/world"
)

func main() {
	var (
		profile = flag.String("profile", "default", "world profile: small, medium, default, paper or large")
		seed    = flag.Int64("seed", 42, "generation seed")
		summary = flag.Bool("summary", false, "print counts instead of the full JSON dump")
		check   = flag.String("check", "", "load a dump, validate it and print its summary")
		churn   = flag.Int("churn", 0, "emit an N-record JSONL delta log for the generated world instead of the dump")
		out     = flag.String("out", "", "write to FILE instead of stdout; churn logs are appended, so a live cfsd -follow can tail the file")
	)
	flag.Parse()

	var w *world.World
	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w, err = world.DecodeJSON(f)
		if err != nil {
			fatal(err)
		}
		printSummary(w)
		return
	}

	var cfg world.Config
	switch *profile {
	case "small":
		cfg = world.Small()
	case "medium":
		cfg = world.Medium()
	case "default":
		cfg = world.Default()
	case "paper":
		cfg = world.PaperScale()
	case "large":
		cfg = world.Large()
	default:
		fatal(fmt.Errorf("unknown profile %q", *profile))
	}
	cfg.Seed = *seed
	w = world.Generate(cfg)

	if *churn > 0 {
		log, _ := delta.Churn(w, *churn, *seed)
		dst, closeDst, err := output(*out, true)
		if err != nil {
			fatal(err)
		}
		defer closeDst()
		if err := delta.EncodeJSONL(dst, log); err != nil {
			fatal(err)
		}
		return
	}

	if *summary {
		printSummary(w)
		return
	}
	dst, closeDst, err := output(*out, false)
	if err != nil {
		fatal(err)
	}
	defer closeDst()
	if err := w.EncodeJSON(dst); err != nil {
		fatal(err)
	}
}

// output resolves -out: stdout when empty; otherwise the named file,
// opened in append mode for churn logs (a tailing cfsd must never see
// the file truncate under it) and truncated for world dumps.
func output(path string, appendMode bool) (*os.File, func(), error) {
	if path == "" {
		return os.Stdout, func() {}, nil
	}
	mode := os.O_CREATE | os.O_WRONLY
	if appendMode {
		mode |= os.O_APPEND
	} else {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func printSummary(w *world.World) {
	kinds := map[world.LinkKind]int{}
	for _, l := range w.Links {
		kinds[l.Kind]++
	}
	remote := 0
	for _, m := range w.Memberships {
		if m.Remote {
			remote++
		}
	}
	fmt.Printf("metros      %d\n", len(w.Metros))
	fmt.Printf("facilities  %d\n", len(w.Facilities))
	fmt.Printf("ixps        %d (%d active)\n", len(w.IXPs), len(w.ActiveIXPs()))
	fmt.Printf("ases        %d\n", len(w.ASes))
	fmt.Printf("routers     %d\n", len(w.Routers))
	fmt.Printf("interfaces  %d\n", len(w.Interfaces))
	fmt.Printf("memberships %d (%d remote)\n", len(w.Memberships), remote)
	for kind, n := range kinds {
		fmt.Printf("links/%-18s %d\n", kind, n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
