package lock

import (
	"testing"
	"testing/quick"

	"batchsched/internal/model"
)

func TestGrantAndCompatibility(t *testing.T) {
	tb := NewTable()
	tb.Grant(1, 10, model.S)
	if !tb.CanGrant(2, 10, model.S) {
		t.Error("S-S must be grantable")
	}
	if tb.CanGrant(2, 10, model.X) {
		t.Error("X against S holder must not be grantable")
	}
	tb.Grant(2, 10, model.S)
	if got := tb.Holders(10); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Holders = %v, want [1 2]", got)
	}
	if m, ok := tb.Holds(1, 10); !ok || m != model.S {
		t.Errorf("Holds(1,10) = %v %v", m, ok)
	}
	if _, ok := tb.Holds(3, 10); ok {
		t.Error("txn 3 must not hold the lock")
	}
}

func TestExclusiveBlocksEveryone(t *testing.T) {
	tb := NewTable()
	tb.Grant(1, 5, model.X)
	if tb.CanGrant(2, 5, model.S) || tb.CanGrant(2, 5, model.X) {
		t.Error("X holder must block both modes for others")
	}
	// The holder itself may re-request anything.
	if !tb.CanGrant(1, 5, model.S) || !tb.CanGrant(1, 5, model.X) {
		t.Error("holder re-request must be grantable")
	}
}

func TestUpgrade(t *testing.T) {
	tb := NewTable()
	tb.Grant(1, 5, model.S)
	if !tb.CanGrant(1, 5, model.X) {
		t.Error("sole S holder must be able to upgrade")
	}
	tb.Grant(2, 5, model.S)
	if tb.CanGrant(1, 5, model.X) {
		t.Error("upgrade with another S holder present must wait")
	}
	tb.ReleaseAll(2)
	if !tb.CanGrant(1, 5, model.X) {
		t.Error("upgrade must be possible after the other reader leaves")
	}
	tb.Grant(1, 5, model.X)
	if m, _ := tb.Holds(1, 5); m != model.X {
		t.Errorf("after upgrade mode = %v, want X", m)
	}
	// Granting S after X must not downgrade.
	tb.Grant(1, 5, model.S)
	if m, _ := tb.Holds(1, 5); m != model.X {
		t.Errorf("downgrade happened: mode = %v, want X", m)
	}
}

func TestReleaseAll(t *testing.T) {
	tb := NewTable()
	tb.Grant(1, 5, model.X)
	tb.Grant(1, 7, model.S)
	tb.Grant(2, 9, model.S)
	freed := tb.ReleaseAll(1)
	if len(freed) != 2 || freed[0] != 5 || freed[1] != 7 {
		t.Errorf("freed = %v, want [5 7]", freed)
	}
	if len(tb.HeldBy(1)) != 0 {
		t.Error("txn 1 must hold nothing after ReleaseAll")
	}
	if tb.LockedFiles() != 1 {
		t.Errorf("LockedFiles = %d, want 1", tb.LockedFiles())
	}
	if got := tb.ReleaseAll(42); len(got) != 0 {
		t.Errorf("releasing a lock-free txn returned %v", got)
	}
}

func TestGrantPanicsOnConflict(t *testing.T) {
	tb := NewTable()
	tb.Grant(1, 5, model.X)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on incompatible grant")
		}
	}()
	tb.Grant(2, 5, model.S)
}

func TestCanGrantAllAndGrantAll(t *testing.T) {
	tb := NewTable()
	tb.Grant(9, 3, model.X)
	files, modes := []model.FileID{1, 2}, []model.Mode{model.X, model.S}
	if !tb.CanGrantAll(5, files, modes) {
		t.Fatal("disjoint needs must be grantable")
	}
	tb.GrantAll(5, files, modes)
	if m, _ := tb.Holds(5, 1); m != model.X {
		t.Error("GrantAll missed file 1")
	}
	if m, _ := tb.Holds(5, 2); m != model.S {
		t.Error("GrantAll missed file 2")
	}
	if tb.CanGrantAll(6, []model.FileID{2, 3}, []model.Mode{model.S, model.S}) {
		t.Error("need overlapping an X holder must not be grantable")
	}
	if !tb.CanGrantAll(6, nil, nil) {
		t.Error("an empty need must be grantable")
	}
}

// refCanGrant is CanGrant as it was before the single-lookup rewrite: the
// requester's own mode from its held-file set, then every other holder's
// mode looked up the same way.
func refCanGrant(tb *Table, txn int64, file model.FileID, mode model.Mode) bool {
	if cur, ok := tb.Holds(txn, file); ok && (cur == model.X || mode == model.S) {
		return true
	}
	for _, id := range tb.Holders(file) {
		if id == txn {
			continue
		}
		if m, _ := tb.Holds(id, file); !m.Compatible(mode) {
			return false
		}
	}
	return true
}

// refCanGrantAll is the map-keyed admission test CanGrantAll replaced.
func refCanGrantAll(tb *Table, txn int64, need map[model.FileID]model.Mode) bool {
	for f, m := range need {
		if !refCanGrant(tb, txn, f, m) {
			return false
		}
	}
	return true
}

// Property: over random grant, upgrade, re-request and release sequences,
// CanGrant agrees with refCanGrant on every (txn, file, mode), and
// CanGrantAll with refCanGrantAll on a random need set; GrantAll leaves each
// needed file held at least as strongly as needed.
func TestCanGrantMatchesReference(t *testing.T) {
	const txns, files = 6, 4
	type op struct {
		Txn, File   uint8
		X, Release  bool
		Need, NeedX uint8 // bit f: the probe needs file f (in X)
		GrantAll    bool
	}
	modeOf := func(x bool) model.Mode {
		if x {
			return model.X
		}
		return model.S
	}
	prop := func(ops []op) bool {
		tb := NewTable()
		for _, o := range ops {
			txn := int64(o.Txn%txns) + 1
			if o.Release {
				tb.ReleaseAll(txn)
			} else if f, m := model.FileID(o.File%files), modeOf(o.X); refCanGrant(tb, txn, f, m) {
				tb.Grant(txn, f, m)
			}
			for x := int64(1); x <= txns; x++ {
				for f := model.FileID(0); f < files; f++ {
					for _, m := range []model.Mode{model.S, model.X} {
						if tb.CanGrant(x, f, m) != refCanGrant(tb, x, f, m) {
							return false
						}
					}
				}
			}
			var fs []model.FileID
			var ms []model.Mode
			need := map[model.FileID]model.Mode{}
			for f := model.FileID(0); f < files; f++ {
				if o.Need&(1<<f) != 0 {
					m := modeOf(o.NeedX&(1<<f) != 0)
					fs, ms = append(fs, f), append(ms, m)
					need[f] = m
				}
			}
			ok := tb.CanGrantAll(txn, fs, ms)
			if ok != refCanGrantAll(tb, txn, need) {
				return false
			}
			if ok && o.GrantAll {
				tb.GrantAll(txn, fs, ms)
				for i, f := range fs {
					if cur, held := tb.Holds(txn, f); !held || (ms[i] == model.X && cur != model.X) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of compatible grants and releases, the
// holders of every file are pairwise compatible.
func TestInvariantPairwiseCompatible(t *testing.T) {
	type op struct {
		Txn     uint8
		File    uint8
		X       bool
		Release bool
	}
	prop := func(ops []op) bool {
		tb := NewTable()
		for _, o := range ops {
			txn := int64(o.Txn%8) + 1
			file := model.FileID(o.File % 4)
			if o.Release {
				tb.ReleaseAll(txn)
				continue
			}
			mode := model.S
			if o.X {
				mode = model.X
			}
			if tb.CanGrant(txn, file, mode) {
				tb.Grant(txn, file, mode)
			}
		}
		// Check the invariant.
		for f := model.FileID(0); f < 4; f++ {
			hs := tb.Holders(f)
			for i := 0; i < len(hs); i++ {
				mi, _ := tb.Holds(hs[i], f)
				for j := i + 1; j < len(hs); j++ {
					mj, _ := tb.Holds(hs[j], f)
					if !mi.Compatible(mj) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCanGrantAll times the ASL admission test on a 16-file table like
// a live Exp.1 batch's: seven transactions hold X on files 0–13 in pairs
// and one holds S on file 15. The requester needs files 14 and 15: in S it
// is granted, in X it is refused at file 15 after a miss on file 14.
func BenchmarkCanGrantAll(b *testing.B) {
	tb := NewTable()
	for txn := int64(1); txn <= 7; txn++ {
		tb.Grant(txn, model.FileID(2*txn-2), model.X)
		tb.Grant(txn, model.FileID(2*txn-1), model.X)
	}
	tb.Grant(8, 15, model.S)
	files := []model.FileID{14, 15}
	for _, c := range []struct {
		name string
		mode model.Mode
		want bool
	}{{"granted", model.S, true}, {"refused", model.X, false}} {
		modes := []model.Mode{c.mode, c.mode}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tb.CanGrantAll(9, files, modes) != c.want {
					b.Fatal("unexpected admission decision")
				}
			}
		})
	}
}

// BenchmarkGrantAllReleaseAll times one ASL admission's acquire and its
// commit's release on the same 16-file table: X on files 14 and 15, then
// ReleaseAll.
func BenchmarkGrantAllReleaseAll(b *testing.B) {
	tb := NewTable()
	for txn := int64(1); txn <= 7; txn++ {
		tb.Grant(txn, model.FileID(2*txn-2), model.X)
		tb.Grant(txn, model.FileID(2*txn-1), model.X)
	}
	files, modes := []model.FileID{14, 15}, []model.Mode{model.X, model.X}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.GrantAll(9, files, modes)
		if len(tb.ReleaseAll(9)) != 2 {
			b.Fatal("release lost a lock")
		}
	}
}
