package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/target"
)

// serialScreen is the screen's reference: one EventMask per golden trace
// step through b, a serial NewBatch, and a scan per (defect, session) for
// the first step on which the defect fires.
func serialScreen(traces [][]target.BusStep, b *crosstalk.Batch) *batchPlan {
	ref := &batchPlan{batch: b, first: make([][]int32, b.Len()), masks: make([][][]uint64, len(traces))}
	for s, steps := range traces {
		ref.masks[s] = make([][]uint64, len(steps))
		for i, st := range steps {
			mask := make([]uint64, b.MaskWords())
			b.EventMask(st.Prev, st.Next, st.Dir, mask)
			ref.masks[s][i] = mask
		}
	}
	for d := range ref.first {
		for s, masks := range ref.masks {
			for i, mask := range masks {
				if mask[d>>6]&(1<<uint(d&63)) == 0 {
					continue
				}
				if ref.first[d] == nil {
					ref.first[d] = make([]int32, len(traces))
					for k := range ref.first[d] {
						ref.first[d][k] = -1
					}
				}
				ref.first[d][s] = int32(i)
				break
			}
		}
	}
	return ref
}

// goldenTraces captures every session's golden steps on one channel from a
// core of its own, since the runner keeps only the transition table.
func goldenTraces(t *testing.T, tgt target.Target, plan *core.Plan, models []target.BusModel, bus core.BusID) [][]target.BusStep {
	t.Helper()
	c, err := tgt.NewCore(plan, models)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([][]target.BusStep, len(plan.Programs))
	for s := range plan.Programs {
		_, steps, err := c.Golden(s)
		if err != nil {
			t.Fatal(err)
		}
		traces[s] = steps[bus]
	}
	return traces
}

// TestParallelScreenMatchesSerial pins the pooled screen to the serial
// reference: the first divergences and every transaction's event mask, on
// both Parwan buses and on widebus64, for libraries of 1 defect, around the
// 64-defect mask word boundary, and at 200 and 1,000 defects, with the
// kernel on 1, 2, 3 and 5 workers sharing a two-token slot pool. The
// screened batch is the library's own, built by Library.Batch on the same
// workers and pool, so the test also pins the pooled build: every set's
// channel equals the serial NewBatch's, which is NewChannel's.
func TestParallelScreenMatchesSerial(t *testing.T) {
	wide, err := target.WideBus(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tgt  target.Target
		bus  core.BusID
	}{
		{"parwan-addr", target.Parwan(), core.AddrBus},
		{"parwan-data", target.Parwan(), core.DataBus},
		{"widebus64", wide, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			models, err := tc.tgt.BusModels(0)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := tc.tgt.Generate(target.GenSpec{})
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewTargetRunner(tc.tgt, plan, models)
			if err != nil {
				t.Fatal(err)
			}
			traces := goldenTraces(t, tc.tgt, plan, models, tc.bus)
			m := models[tc.bus]
			full, err := defects.Generate(m.Nominal, m.Thresholds, defects.Config{Size: 1000, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 63, 64, 65, 200, 1000} {
				params := make([]*crosstalk.Params, n)
				for i, d := range full.Defects[:n] {
					params[i] = d.Params
				}
				serial, err := crosstalk.NewBatch(params, m.Thresholds)
				if err != nil {
					t.Fatal(err)
				}
				ref := serialScreen(traces, serial)
				for _, workers := range []int{1, 2, 3, 5} {
					pool := make(chan struct{}, 2)
					lib := &defects.Library{Nominal: m.Nominal, Thresholds: m.Thresholds, Defects: full.Defects[:n]}
					b, err := lib.Batch(context.Background(), m.Thresholds, workers, pool)
					if err != nil {
						t.Fatal(err)
					}
					for d := range params {
						if !reflect.DeepEqual(b.Channel(d), serial.Channel(d)) {
							t.Fatalf("%d defects, %d workers: set %d's channel differs from the serial build's", n, workers, d)
						}
					}
					got, err := r.batchScreen(context.Background(), tc.bus, b, workers, pool)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.first, ref.first) {
						t.Errorf("%d defects, %d workers: first divergences differ from the serial reference", n, workers)
					}
					if !reflect.DeepEqual(got.masks, ref.masks) {
						t.Errorf("%d defects, %d workers: event masks differ from the serial reference", n, workers)
					}
				}
			}
		})
	}
}

// TestParallelScreenCancelled pins cancellation: a screen whose context is
// cancelled returns the context's error, also while every slot of the pool
// is held elsewhere, and releases no token it did not take.
func TestParallelScreenCancelled(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(data.Nominal, data.Thresholds, defects.Config{Size: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := lib.Batch(context.Background(), data.Thresholds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.batchScreen(ctx, core.DataBus, b, 3, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled screen returned %v, want context.Canceled", err)
	}
	full := make(chan struct{}, 2)
	full <- struct{}{}
	full <- struct{}{}
	if _, err := r.batchScreen(ctx, core.DataBus, b, 3, full); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled screen on a full pool returned %v, want context.Canceled", err)
	}
	if len(full) != 2 {
		t.Fatalf("pool holds %d tokens after the cancelled screen, want the 2 held elsewhere", len(full))
	}
}
