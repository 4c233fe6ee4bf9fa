package main

// Reference outputs the benchmark checks every run against: the SHA-256
// of each experiment's rendered text at the suite's options, and the
// digest of a reference fleet lifecycle. Regenerate with
// `e2ebench --write-golden e2ebench/golden.json` from the repository
// root after an intended output change.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"hswsim/internal/exp"
	"hswsim/internal/fleet"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile is the layout of golden.json.
type goldenFile struct {
	SuiteScale  float64           `json:"suite_scale"`
	SuiteSeed   uint64            `json:"suite_seed"`
	Experiments map[string]string `json:"experiments"`
	Fleet       struct {
		Nodes           int    `json:"nodes"`
		VariationSeed   uint64 `json:"variation_seed"`
		Digest          string `json:"digest"`
		StepVirtualNS   int64  `json:"step_virtual_ns"`
		WindowVirtualNS int64  `json:"window_virtual_ns"`
	} `json:"fleet"`
}

var golden goldenFile

// loadGolden parses the embedded reference outputs and checks they
// were made with the options this binary runs.
func loadGolden() error {
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if golden.SuiteScale != suiteOpts.Scale || golden.SuiteSeed != suiteOpts.Seed {
		return fmt.Errorf("golden.json was made at scale %g seed %#x, the suite runs scale %g seed %#x",
			golden.SuiteScale, golden.SuiteSeed, suiteOpts.Scale, suiteOpts.Seed)
	}
	for _, d := range exp.Suite() {
		if golden.Experiments[d.ID] == "" {
			return fmt.Errorf("golden.json has no hash for experiment %s", d.ID)
		}
	}
	g := golden.Fleet
	if g.Nodes != fleetNodes || g.VariationSeed != refVariationSeed ||
		g.StepVirtualNS != int64(fleetStep) || g.WindowVirtualNS != int64(fleetWindow) || g.Digest == "" {
		return fmt.Errorf("golden.json fleet reference does not match this binary's fleet lifecycle")
	}
	return nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkExperiment compares an experiment's rendered bytes at the suite
// options with the reference.
func checkExperiment(id string, out []byte) error {
	if got, want := sha(out), golden.Experiments[id]; got != want {
		return fmt.Errorf("%s: output sha256 %s, reference %s", id, got[:16], want[:16])
	}
	return nil
}

// digestResults hashes a fleet measurement bit for bit, node by node.
func digestResults(res []fleet.NodeResult) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range res {
		for _, v := range []float64{r.GHz, r.GIPS, r.PkgW} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeGoldenFile recomputes the reference outputs and writes them to
// path. The suite is rendered twice — concurrently through RunSuite and
// serially through RunLive — and the fleet lifecycle both serially and
// in parallel; any disagreement is an error, not a reference.
func writeGoldenFile(path string) error {
	var g goldenFile
	g.SuiteScale, g.SuiteSeed = suiteOpts.Scale, suiteOpts.Seed
	g.Experiments = map[string]string{}
	var ids []string
	for _, d := range exp.Suite() {
		ids = append(ids, d.ID)
	}
	var err error
	exp.RunSuite(ids, suiteOpts, false, nil, func(r exp.SuiteResult) {
		if r.Err != nil && err == nil {
			err = fmt.Errorf("%s: %w", r.ID, r.Err)
		}
		g.Experiments[r.ID] = sha(r.Output)
	})
	if err != nil {
		return err
	}
	for _, id := range ids {
		out, err := exp.RunLive(id, suiteOpts, false)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if sha(out) != g.Experiments[id] {
			return fmt.Errorf("%s renders differently through RunSuite and RunLive", id)
		}
	}
	parent, err := warmFleetParent()
	if err != nil {
		return err
	}
	serial, err := lifecycle(parent, refVariationSeed, 1, nil, 0)
	if err != nil {
		return err
	}
	parallel, err := lifecycle(parent, refVariationSeed, 0, nil, 0)
	if err != nil {
		return err
	}
	if serial != parallel {
		return fmt.Errorf("fleet lifecycle differs between serial and parallel stepping")
	}
	g.Fleet.Nodes, g.Fleet.VariationSeed, g.Fleet.Digest = fleetNodes, refVariationSeed, serial
	g.Fleet.StepVirtualNS, g.Fleet.WindowVirtualNS = int64(fleetStep), int64(fleetWindow)
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
