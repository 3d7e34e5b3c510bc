package chaos

import (
	"testing"

	"overhaul/internal/faultinject"
)

// storeRules arms every auditstore fault point hard enough that a
// default-length campaign hits torn appends, group-commit window
// faults, and a rotation crash.
func storeRules() []faultinject.Rule {
	return append(faultinject.DefaultRules(),
		faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, Prob: 0.02},
		faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindCrash, Prob: 0.01},
		faultinject.Rule{Point: faultinject.PointStoreBatch, Kind: faultinject.KindError, Prob: 0.01},
		faultinject.Rule{Point: faultinject.PointStoreBatch, Kind: faultinject.KindCrash, Prob: 0.005},
		faultinject.Rule{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, After: 2, Count: 1},
	)
}

// TestCampaignStorePrefix is the end-to-end durable-trail property: a
// campaign that syncs its audit stream into a store while store faults
// tear writes and crash rotations must still end with the store
// holding exactly the full audit stream — every fault recovered by
// reopen, never a silent gap. The fault mix also keeps the original
// invariants under load, so the store cannot buy durability by
// breaking enforcement.
func TestCampaignStorePrefix(t *testing.T) {
	res, err := Run(Campaign{
		Seed:     21,
		Steps:    250,
		Rules:    storeRules(),
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("violations in store campaign:\n%s", res.Transcript())
	}
	if res.StoreFaults == 0 {
		t.Fatalf("store fault rules never fired (%d evaluations) — the property was not tested", res.StoreRecords)
	}
	if res.StoreReopens == 0 {
		t.Fatalf("store faulted %d times but never recovered by reopen", res.StoreFaults)
	}
	if res.StoreRecords == 0 || res.StoreRecords != len(res.AuditLines) {
		t.Fatalf("store holds %d records, audit stream has %d", res.StoreRecords, len(res.AuditLines))
	}
}

// TestCampaignStoreFaultFree pins the cheap case: with a store
// attached and no store faults, the final store is the audit stream
// and no reopens happened.
func TestCampaignStoreFaultFree(t *testing.T) {
	res, err := Run(Campaign{Seed: 3, Steps: 150, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.Transcript())
	}
	if res.StoreFaults != 0 || res.StoreReopens != 0 {
		t.Fatalf("fault-free campaign reported %d store faults, %d reopens", res.StoreFaults, res.StoreReopens)
	}
	if res.StoreRecords != len(res.AuditLines) {
		t.Fatalf("store holds %d records, audit stream has %d", res.StoreRecords, len(res.AuditLines))
	}
}

// TestCampaignStoreDeterminism requires byte-identical transcripts —
// and identical store outcomes — from two runs of the same store
// campaign: the durable trail is part of the reproducibility story.
func TestCampaignStoreDeterminism(t *testing.T) {
	run := func(dir string) *Result {
		t.Helper()
		res, err := Run(Campaign{Seed: 99, Steps: 200, Rules: storeRules(), StoreDir: dir})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(t.TempDir()), run(t.TempDir())
	if a.Transcript() != b.Transcript() {
		t.Fatalf("store campaign not deterministic: transcripts differ")
	}
	if a.StoreRecords != b.StoreRecords || a.StoreFaults != b.StoreFaults || a.StoreReopens != b.StoreReopens {
		t.Fatalf("store outcomes differ: (%d,%d,%d) vs (%d,%d,%d)",
			a.StoreRecords, a.StoreFaults, a.StoreReopens,
			b.StoreRecords, b.StoreFaults, b.StoreReopens)
	}
}
