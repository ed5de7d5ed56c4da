// Package lock implements the file-granularity S/X lock table held by the
// control node. It tracks holders only; queueing and grant policy belong to
// the schedulers (package sched), which differ in exactly those decisions.
package lock

import (
	"fmt"
	"slices"

	"batchsched/internal/model"
)

// holders is the holder set of one file: parallel slices sorted ascending by
// transaction ID. Holder sets are tiny (readers of a hot file), so sorted
// insertion beats a map and keeps every read deterministic without a
// per-call sort-and-allocate.
type holders struct {
	ids   []int64
	modes []model.Mode
}

func (h *holders) find(txn int64) int {
	i, _ := slices.BinarySearch(h.ids, txn)
	return i
}

func (h *holders) insert(txn int64, mode model.Mode) {
	i := h.find(txn)
	if i < len(h.ids) && h.ids[i] == txn {
		h.modes[i] = mode
		return
	}
	h.ids = append(h.ids, 0)
	copy(h.ids[i+1:], h.ids[i:])
	h.ids[i] = txn
	h.modes = append(h.modes, 0)
	copy(h.modes[i+1:], h.modes[i:])
	h.modes[i] = mode
}

func (h *holders) remove(txn int64) {
	i := h.find(txn)
	if i < len(h.ids) && h.ids[i] == txn {
		h.ids = append(h.ids[:i], h.ids[i+1:]...)
		h.modes = append(h.modes[:i], h.modes[i+1:]...)
	}
}

// heldFiles is the lock set of one transaction: parallel slices sorted
// ascending by file ID.
type heldFiles struct {
	files []model.FileID
	modes []model.Mode
}

func (h *heldFiles) find(file model.FileID) int {
	i, _ := slices.BinarySearch(h.files, file)
	return i
}

func (h *heldFiles) insert(file model.FileID, mode model.Mode) {
	i := h.find(file)
	if i < len(h.files) && h.files[i] == file {
		h.modes[i] = mode
		return
	}
	h.files = append(h.files, 0)
	copy(h.files[i+1:], h.files[i:])
	h.files[i] = file
	h.modes = append(h.modes, 0)
	copy(h.modes[i+1:], h.modes[i:])
	h.modes[i] = mode
}

// Table maps each file to its current lock holders. The zero value is not
// usable; call NewTable.
//
// Holders, HolderModes, HeldBy and ReleaseAll return slices owned by the
// table, always in ascending order: they are valid until the table's next
// mutation and must not be modified. Callers that need to retain results
// across Grant/Release calls must copy.
type Table struct {
	files  map[model.FileID]*holders
	held   map[int64]*heldFiles
	locked int // files with >= 1 holder (file entries persist when emptied)
	pool   []*heldFiles
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{
		files: make(map[model.FileID]*holders),
		held:  make(map[int64]*heldFiles),
	}
}

// Holds returns the mode transaction txn currently holds on file, if any.
func (t *Table) Holds(txn int64, file model.FileID) (model.Mode, bool) {
	hf, ok := t.held[txn]
	if !ok {
		return 0, false
	}
	i := hf.find(file)
	if i < len(hf.files) && hf.files[i] == file {
		return hf.modes[i], true
	}
	return 0, false
}

// Holders returns the transactions holding a lock on file, in ascending ID
// order. The slice is owned by the table; see the Table contract.
func (t *Table) Holders(file model.FileID) []int64 {
	h, ok := t.files[file]
	if !ok {
		return nil
	}
	return h.ids
}

// HolderModes returns the holders of file and the mode each holds, as
// parallel slices in ascending ID order. Both are owned by the table; see
// the Table contract.
func (t *Table) HolderModes(file model.FileID) ([]int64, []model.Mode) {
	h, ok := t.files[file]
	if !ok {
		return nil, nil
	}
	return h.ids, h.modes
}

// HeldBy returns the files transaction txn holds locks on, ascending. The
// slice is owned by the table; see the Table contract.
func (t *Table) HeldBy(txn int64) []model.FileID {
	hf, ok := t.held[txn]
	if !ok {
		return nil
	}
	return hf.files
}

// CanGrant reports whether txn could be granted mode on file right now:
// every other holder's mode must be compatible, and an upgrade from S to X
// is possible only for a sole holder. A request for a mode already covered
// by the held mode is always grantable (idempotent re-request): holders are
// pairwise compatible, so an X holder holds alone and an S holder shares
// only with S holders. The test is one holder-set lookup and one pass over
// that sorted slice.
func (t *Table) CanGrant(txn int64, file model.FileID, mode model.Mode) bool {
	h, ok := t.files[file]
	if !ok {
		return true
	}
	for i, id := range h.ids {
		if id != txn && !h.modes[i].Compatible(mode) {
			return false
		}
	}
	return true
}

// Grant records the lock. It panics when the grant is incompatible with the
// current holders — callers must check CanGrant first; a violation is a
// scheduler bug, not a runtime condition.
func (t *Table) Grant(txn int64, file model.FileID, mode model.Mode) {
	if !t.CanGrant(txn, file, mode) {
		panic(fmt.Sprintf("lock: incompatible grant txn=%d file=%d mode=%v holders=%v",
			txn, file, mode, t.Holders(file)))
	}
	if cur, ok := t.Holds(txn, file); ok && cur == model.X {
		return // keep the stronger mode
	}
	h, ok := t.files[file]
	if !ok {
		h = &holders{}
		t.files[file] = h
	}
	if len(h.ids) == 0 {
		t.locked++
	}
	h.insert(txn, mode)
	hf, ok := t.held[txn]
	if !ok {
		if n := len(t.pool); n > 0 {
			hf = t.pool[n-1]
			t.pool[n-1] = nil
			t.pool = t.pool[:n-1]
		} else {
			hf = &heldFiles{}
		}
		t.held[txn] = hf
	}
	hf.insert(file, mode)
}

// ReleaseAll drops every lock txn holds (commit-time release under strict
// locking) and returns the freed files in ascending order. The slice is
// owned by the table; see the Table contract.
func (t *Table) ReleaseAll(txn int64) []model.FileID {
	hf, ok := t.held[txn]
	if !ok {
		return nil
	}
	for _, f := range hf.files {
		h := t.files[f]
		h.remove(txn)
		if len(h.ids) == 0 {
			t.locked-- // keep the empty entry for reuse
		}
	}
	delete(t.held, txn)
	files := hf.files
	hf.files = hf.files[:0]
	hf.modes = hf.modes[:0]
	t.pool = append(t.pool, hf)
	// files aliases the pooled slice's old backing; hand it out full-length.
	return files[:len(files):len(files)]
}

// CanGrantAll reports whether every need could be granted to txn
// simultaneously — the ASL admission test. files and modes are parallel
// slices, as model.Txn.LockNeedSorted returns them.
func (t *Table) CanGrantAll(txn int64, files []model.FileID, modes []model.Mode) bool {
	for i, f := range files {
		if !t.CanGrant(txn, f, modes[i]) {
			return false
		}
	}
	return true
}

// GrantAll grants every need to txn, in the order given (ascending file
// order from LockNeedSorted, so any panic message is reproducible). Callers
// must have checked CanGrantAll.
func (t *Table) GrantAll(txn int64, files []model.FileID, modes []model.Mode) {
	for i, f := range files {
		t.Grant(txn, f, modes[i])
	}
}

// LockedFiles returns how many files currently have at least one holder.
func (t *Table) LockedFiles() int { return t.locked }
