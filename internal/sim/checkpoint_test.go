package sim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// ckptTraceCap is the tracer capacity shared by every run of a parity
// comparison: restoring trace events requires identical ring capacity.
const ckptTraceCap = 256

// checkpointConfigs covers all four mechanism backends, each with fault
// injection enabled (so the integrity checker and its violation state
// ride along); the MCR config additionally runs the resilience policy
// with governor and quarantine, plus profile-based allocation. The budget
// gives every run at least five snapshot opportunities, and the MCR one a
// quarantine at the fourth and a governor downgrade whose MRS drain is in
// progress at the fifth.
func checkpointConfigs(t *testing.T) map[string]sim.Config {
	t.Helper()
	base := func(workload string) sim.Config {
		cfg := sim.DefaultConfig(workload)
		cfg.InstsPerCore = 120_000
		cfg.Seed = 3
		cfg.Fault = &fault.Config{Seed: 3, WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005}
		return cfg
	}
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := make(map[string]sim.Config)

	c := base("stream")
	c.DRAM = dram.DefaultConfig(mode44)
	c.AllocRatio = 0.5
	c.Resilience = &sim.ResilienceConfig{DowngradeAfter: 2, Quarantine: true}
	cfgs["mcr"] = c

	c = base("stream")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	tl := mech.DefaultTLConfig()
	c.DRAM.TL = &tl
	cfgs["tldram"] = c

	c = base("mummer")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	nu := mech.DefaultNUATConfig()
	c.DRAM.NUAT = &nu
	cfgs["nuat"] = c

	c = base("mummer")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	cl := mech.DefaultCLRConfig()
	c.DRAM.CLR = &cl
	cfgs["clr"] = c

	return cfgs
}

// boundedCtx is the context every parity, checkpoint and resume test runs
// under: a restore that forgets a piece of derived state livelocks the
// run, and that must fail here in seconds with the context's error, not
// at go test's ten-minute timeout. The runs take well under a second.
func boundedCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// resultJSON runs cfg (with fresh observability attachments, and the
// protocol oracle on a fresh run's device) and renders the Result with the
// nondeterministic wall clock zeroed. noSplit is the same rendering with
// the obs engine split zeroed as well: the split is the one field that
// depends on whether the run polls, since a run that writes checkpoints or
// polls resilience takes a full step at every poll boundary where an
// unpolled one lets the controller run alone across it.
func resultJSON(t *testing.T, ctx context.Context, cfg sim.Config) (full, noSplit []byte) {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(ckptTraceCap)
	res, err := sim.RunChecked(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0
	full, err = json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles = 0, 0
	noSplit, err = json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return full, noSplit
}

// checkpointedJSON is resultJSON with a snapshot written every 4096
// cycles (the poll cadence, so at every opportunity); it also returns how
// many were written, which is the last cut point a run of cfg offers.
func checkpointedJSON(t *testing.T, cfg sim.Config) (full, noSplit []byte, writes int) {
	t.Helper()
	cfg.Checkpoint = &sim.CheckpointConfig{
		Path:         filepath.Join(t.TempDir(), "ref.ckpt"),
		EveryNCycles: 4096,
		OnWrite:      func(int64) { writes++ },
	}
	full, noSplit = resultJSON(t, boundedCtx(t), cfg)
	return full, noSplit, writes
}

// cutPoints are the snapshot writes a parity test interrupts at, out of
// the total a run makes: the first, the third (after refreshes and, with
// faults injected, a quarantine) and the last before the run finishes
// (for MCR with resilience, after a governor downgrade).
func cutPoints(t *testing.T, total int) []int {
	t.Helper()
	if total < 1 {
		t.Fatal("the run finished before a checkpoint was due")
	}
	cuts := []int{1}
	for _, k := range []int{3, total} {
		if k <= total && k != cuts[len(cuts)-1] {
			cuts = append(cuts, k)
		}
	}
	return cuts
}

// interruptAt runs cfg with a snapshot every 4096 cycles and cancels it
// at the k-th write of total, returning a copy of that snapshot and its
// cycle. The copy matters for k == total: the loop notices a
// cancellation at the next poll, and the run may finish (and remove its
// snapshot) before then.
func interruptAt(t *testing.T, cfg sim.Config, k, total int) (path string, cycle int64) {
	t.Helper()
	dir := t.TempDir()
	live := filepath.Join(dir, "run.ckpt")
	path = filepath.Join(dir, "cut.ckpt")
	ctx, cancel := context.WithCancel(boundedCtx(t))
	defer cancel()
	writes := 0
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(ckptTraceCap)
	cfg.Checkpoint = &sim.CheckpointConfig{
		Path:         live,
		EveryNCycles: 4096,
		Resume:       true,
		OnWrite: func(c int64) {
			if writes++; writes != k {
				return
			}
			data, err := os.ReadFile(live)
			if err != nil {
				t.Errorf("no checkpoint on disk at write %d: %v", k, err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Error(err)
			}
			cycle = c
			cancel()
		},
	}
	_, err := sim.RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) && (err != nil || k < total) {
		t.Fatalf("run interrupted at write %d of %d: want context.Canceled, got %v", k, total, err)
	}
	if cycle == 0 {
		t.Fatalf("checkpoint write %d never happened", k)
	}
	return path, cycle
}

// TestCheckpointResumeParity is the tentpole's correctness pin: for every
// mechanism backend, a run interrupted mid-flight and restored from its
// checkpoint must produce a Result byte-identical to the uninterrupted
// checkpointed run — with fault injection, metrics and tracing all
// enabled, and wherever in the run the cut falls — and writing snapshots
// must change nothing of the Result but the obs engine split.
func TestCheckpointResumeParity(t *testing.T) {
	for name, cfg := range checkpointConfigs(t) {
		t.Run(name, func(t *testing.T) {
			_, want := resultJSON(t, boundedCtx(t), cfg)
			writing, writingNoSplit, total := checkpointedJSON(t, cfg)
			if !bytes.Equal(writingNoSplit, want) {
				t.Errorf("writing snapshots changed the Result beyond the engine split\n got: %s\nwant: %s", writingNoSplit, want)
			}
			for _, k := range cutPoints(t, total) {
				path, wrote := interruptAt(t, cfg, k, total)

				// Resumed run: strict restore from the snapshot, then to
				// completion.
				var resumedAt int64
				rcfg := cfg
				rcfg.Checkpoint = &sim.CheckpointConfig{
					Path:         path,
					EveryNCycles: 4096,
					Resume:       true,
					Strict:       true,
					OnResume:     func(cycle int64) { resumedAt = cycle },
				}
				got, _ := resultJSON(t, boundedCtx(t), rcfg)
				if resumedAt != wrote {
					t.Errorf("cut %d of %d: resumed at cycle %d, checkpoint was written at %d", k, total, resumedAt, wrote)
				}
				if !bytes.Equal(got, writing) {
					t.Errorf("cut %d of %d: resumed Result diverged from the uninterrupted checkpointed run\n got: %s\nwant: %s", k, total, got, writing)
				}
				// A completed run removes its snapshot so a rerun starts fresh.
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("cut %d of %d: checkpoint not removed after successful completion: %v", k, total, err)
				}
			}
		})
	}
}

// TestRestoreConfigMismatch: a snapshot restored under a different
// configuration is refused with the typed error.
func TestRestoreConfigMismatch(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	s, err := sim.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Fatalf("want snapshot.ErrConfigMismatch, got %v", err)
	}
	// The matching config restores fine.
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), cfg); err != nil {
		t.Fatalf("restore under the original config: %v", err)
	}
}

// TestResumeMissingSnapshot: a resume without a snapshot starts fresh by
// default and errors under Strict.
func TestResumeMissingSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true}
	if _, err := sim.RunContext(boundedCtx(t), cfg); err != nil {
		t.Fatalf("lenient resume with no snapshot must start fresh: %v", err)
	}
	cfg.Checkpoint.Strict = true
	if _, err := sim.RunContext(boundedCtx(t), cfg); err == nil {
		t.Fatal("strict resume with no snapshot must fail")
	}
}

// TestResumeCorruptSnapshot: a damaged snapshot file is a fresh start by
// default and a typed error under Strict — never a panic.
func TestResumeCorruptSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := os.WriteFile(path, []byte("MCRSNAP1 but then garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true, Strict: true}
	if _, err := sim.RunContext(boundedCtx(t), cfg); !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrChecksum) && !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("strict resume from corrupt snapshot: want typed snapshot error, got %v", err)
	}
	cfg.Checkpoint.Strict = false
	if _, err := sim.RunContext(boundedCtx(t), cfg); err != nil {
		t.Fatalf("lenient resume from corrupt snapshot must start fresh: %v", err)
	}
}

// rewritePayload rewrites a snapshot file in place the way bit rot that
// happens to keep the checksum would: edit returns the new payload and
// the trailer's length and CRC are recomputed over it.
func rewritePayload(t *testing.T, path string, edit func(payload []byte) []byte) {
	t.Helper()
	const headerSize, trailerSize = 12, 16
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := edit(bytes.Clone(data[headerSize : len(data)-trailerSize]))
	out := append(data[:headerSize:headerSize], payload...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint64(out, crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA)))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replaceOnce returns payload with the one occurrence of old replaced.
func replaceOnce(t *testing.T, payload, old, repl []byte) []byte {
	t.Helper()
	if bytes.Count(payload, old) != 1 {
		t.Fatalf("cannot patch: %d bytes found %d times", len(old), bytes.Count(payload, old))
	}
	return bytes.Replace(payload, old, repl, 1)
}

// TestResumeHostileSnapshot: a snapshot whose envelope and checksum are
// fine but whose state does not fit the configuration — every row below
// is a real mid-run state with one stored index, cursor or width moved
// out of range, or one packed array damaged — is refused as
// snapshot.ErrCorrupt under Strict and is a clean fresh start without it.
// Before the import functions range-checked what they store, the first
// three restored fine and then died in Run with an index out of range;
// the integrity rows would be out-of-range writes into the checker's
// indexed shadow. The first row is the control: the same file untouched
// resumes and ends in the uninterrupted run's Result, so a refusal below
// is the mutation's doing. The two blobs that claim far more records than
// they hold are refused having reserved a bounded number of them. The last
// two are files of earlier formats.
func TestResumeHostileSnapshot(t *testing.T) {
	cfg := checkpointConfigs(t)["mcr"]
	geom := cfg.DRAM.Geom
	want, _ := resultJSON(t, boundedCtx(t), cfg)
	_, _, total := checkpointedJSON(t, cfg)
	real, _ := interruptAt(t, cfg, total, total)
	// shadow edits the checker's rows unpacked.
	shadow := func(edit func([]integrity.RowSnapshot) []integrity.RowSnapshot) func(*snapshot.State) {
		return func(st *snapshot.State) {
			rows, err := st.Integrity.Rows.Unpack()
			if err != nil || len(rows) < 2 {
				t.Fatalf("the cut shadows %d rows (%v), nothing to tamper with", len(rows), err)
			}
			st.Integrity.Rows = integrity.PackRows(edit(rows))
		}
	}
	// version stamps a file with another format version.
	version := func(v uint32) func(string, *snapshot.State) {
		return func(path string, _ *snapshot.State) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(data[8:], v)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := []struct {
		name   string
		mutate func(*snapshot.State)
		patch  func(path string, st *snapshot.State)
		want   error
	}{
		{name: "control: untouched", mutate: func(*snapshot.State) {}},
		{name: "ROB head past the ring", mutate: func(st *snapshot.State) { st.Cores[0].Head = 1 << 20 }},
		{name: "tFAW window cursor past the window", mutate: func(st *snapshot.State) { st.Device.Ranks[0].ActWindowAt = 9 }},
		{name: "pending completion for a core that does not exist", mutate: func(st *snapshot.State) {
			st.Loop.Pending = append(st.Loop.Pending, controller.Completion{ID: 1, CoreID: 7, DoneAt: 1 << 40})
		}},
		{name: "undelivered completion for a core that does not exist", mutate: func(st *snapshot.State) {
			st.Controller.Completions = append(st.Controller.Completions, controller.Completion{ID: 1, CoreID: 7})
		}},
		{name: "queued read for a core that does not exist", mutate: func(st *snapshot.State) { st.Controller.ReadQ[0][0].CoreID = 7 }},
		{name: "queued read with a stale bank index", mutate: func(st *snapshot.State) { st.Controller.ReadQ[0][0].Bank ^= 1 }},
		{name: "queued read outside the geometry", mutate: func(st *snapshot.State) { st.Controller.ReadQ[0][0].Addr.Row = 1 << 30 }},
		{name: "ROB occupancy its window does not add up to", mutate: func(st *snapshot.State) { st.Cores[0].Occupancy++ }},
		{name: "ROB window larger than the ring", mutate: func(st *snapshot.State) { st.Cores[0].Sz = len(st.Cores[0].ROB) + 1 }},
		{name: "open row the bank does not have", mutate: func(st *snapshot.State) { st.Device.Banks[0].OpenRow = geom.Rows }},
		{name: "bus owned by a rank the channel does not have", mutate: func(st *snapshot.State) { st.Device.BusOwner[0] = geom.Ranks }},
		{name: "refresh counter past the window", mutate: func(st *snapshot.State) { st.Controller.Refresh[0].Counter = 1 << 20 }},
		{name: "violation cursor past the violations", mutate: func(st *snapshot.State) { st.Resilience.Processed = 1 << 20 }},
		{name: "governor rung off the ladder", mutate: func(st *snapshot.State) { st.Resilience.Governor.Pos = 99 }},
		{name: "rank idle counters of another geometry", mutate: func(st *snapshot.State) { st.Loop.IdleStreak = append(st.Loop.IdleStreak, 0) }},
		{name: "no latency histogram", mutate: func(st *snapshot.State) { st.Loop.Hist = nil }},
		{name: "shadowed row in a negative bank", mutate: shadow(func(r []integrity.RowSnapshot) []integrity.RowSnapshot { r[0].Bank = -1; return r })},
		{name: "shadowed row in a bank past the last", mutate: shadow(func(r []integrity.RowSnapshot) []integrity.RowSnapshot {
			r[len(r)-1].Bank = geom.Channels * geom.Ranks * geom.Banks
			return r
		})},
		{name: "shadowed row past the bank's rows", mutate: shadow(func(r []integrity.RowSnapshot) []integrity.RowSnapshot {
			r[len(r)-1].Row = geom.Rows
			return r
		})},
		{name: "shadowed row twice", mutate: shadow(func(r []integrity.RowSnapshot) []integrity.RowSnapshot { r[1] = r[0]; return r })},
		{name: "shadowed rows in descending order", mutate: shadow(func(r []integrity.RowSnapshot) []integrity.RowSnapshot {
			r[0], r[1] = r[1], r[0]
			return r
		})},
		{name: "shadowed row restored to nothing", mutate: shadow(func(r []integrity.RowSnapshot) []integrity.RowSnapshot { r[0].Level = 0; return r })},
		{name: "shadowed row restored at no time", mutate: shadow(func(r []integrity.RowSnapshot) []integrity.RowSnapshot {
			r[0].AtMs = math.NaN()
			return r
		})},
		{name: "row blob cut inside a record", mutate: func(st *snapshot.State) { st.Integrity.Rows = append(st.Integrity.Rows, 0x80) }},
		{name: "row blob that claims a million rows and holds none", mutate: func(st *snapshot.State) {
			st.Integrity.Rows = bytes.Repeat([]byte{0x80}, 4<<20)
		}},
		{name: "event blob cut inside an event", mutate: func(*snapshot.State) {}, patch: func(path string, st *snapshot.State) {
			blob, err := st.Trace.Buf.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			cut := bytes.Clone(blob)
			cut[len(cut)-1] |= 0x80 // the last varint now runs off the end
			rewritePayload(t, path, func(p []byte) []byte { return replaceOnce(t, p, blob, cut) })
		}},
		{name: "event blob that claims half a million events and holds none", mutate: func(*snapshot.State) {}, patch: func(path string, st *snapshot.State) {
			blob, err := st.Trace.Buf.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			section := func(b []byte) []byte { return append(binary.LittleEndian.AppendUint64(nil, uint64(len(b))), b...) }
			rewritePayload(t, path, func(p []byte) []byte {
				return replaceOnce(t, p, section(blob), section(bytes.Repeat([]byte{0x80}, 4<<20)))
			})
		}},
		{name: "more events than the ring holds", mutate: func(st *snapshot.State) {
			st.Trace.Buf = append(st.Trace.Buf, make(obs.Ring, st.Trace.Cap)...)
		}},
		{name: "event count below the events held", mutate: func(st *snapshot.State) { st.Trace.N = -1 }},
		{name: "format version 2", mutate: func(*snapshot.State) {}, want: snapshot.ErrVersion, patch: version(2)},
		{name: "format version 3", mutate: func(*snapshot.State) {}, want: snapshot.ErrVersion, patch: version(3)},
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st, err := snapshot.ReadFile(real)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Controller.ReadQ[0]) == 0 || len(st.Trace.Buf) == 0 {
				t.Fatal("the cut has no queued read or no traced event to tamper with")
			}
			row.mutate(st)
			dir := t.TempDir()
			path := filepath.Join(dir, "hostile.ckpt")
			if err := snapshot.WriteFile(path, st); err != nil {
				t.Fatal(err)
			}
			if row.patch != nil {
				row.patch(path, st)
			}
			// The snapshot carries trace events: without a tracer of its
			// capacity every file would be refused, hostile or not.
			hcfg := cfg
			hcfg.Metrics, hcfg.Trace = obs.NewRegistry(), obs.NewTracer(ckptTraceCap)
			hcfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true, Strict: true}
			if i == 0 {
				if got, _ := resultJSON(t, boundedCtx(t), hcfg); !bytes.Equal(got, want) {
					t.Fatalf("the untouched snapshot did not resume into the uninterrupted Result\n got: %s\nwant: %s", got, want)
				}
				return
			}
			wantErr := row.want
			if wantErr == nil {
				wantErr = snapshot.ErrCorrupt
			}
			if _, err := sim.RunContext(boundedCtx(t), hcfg); !errors.Is(err, wantErr) {
				t.Fatalf("strict resume: want %v, got %v", wantErr, err)
			}
			hcfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true}
			if got, _ := resultJSON(t, boundedCtx(t), hcfg); !bytes.Equal(got, want) {
				t.Errorf("lenient resume did not start fresh\n got: %s\nwant: %s", got, want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.Contains(e.Name(), ".tmp") {
					t.Errorf("temp file left behind: %s", e.Name())
				}
			}
		})
	}
}

// TestCheckpointValidation: contradictory checkpoint settings are
// configuration errors, caught before the run starts.
func TestCheckpointValidation(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 1000
	cfg.Checkpoint = &sim.CheckpointConfig{EveryNCycles: 4096}
	if _, err := sim.RunContext(boundedCtx(t), cfg); err == nil {
		t.Fatal("EveryNCycles without a path must be rejected")
	}
	cfg.Checkpoint = &sim.CheckpointConfig{Path: "x", EveryNCycles: -1}
	if _, err := sim.RunContext(boundedCtx(t), cfg); err == nil {
		t.Fatal("negative EveryNCycles must be rejected")
	}
}
