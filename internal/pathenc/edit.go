package pathenc

import (
	"errors"
	"maps"

	"xpathest/internal/bitset"
	"xpathest/internal/xmltree"
)

// This file holds the labeling-maintenance entry points of the
// incremental summary path (package delta). The flow after a subtree
// splice is: CloneForEdit (so summaries built over the old labeling
// keep reading it untouched), RelabelSubtree over the inserted nodes,
// RecomputeAncestors up the edit path, Rebind to re-derive the
// Ord-indexed pid slice, and only then Document.Renumber. All of it
// keeps the encoding table fixed: an edit that introduces a
// root-to-leaf path the table does not know fails with ErrPathUnknown,
// and the caller falls back to a full Build.

// ErrPathUnknown reports that an edited node's root-to-leaf path is
// absent from the encoding table, so the labeling cannot be maintained
// in place and must be rebuilt from the document.
var ErrPathUnknown = errors.New("pathenc: path not in encoding table")

// CloneForEdit returns a Labeling that shares the encoding table and
// every interned pid instance with l but owns copies of the mutable
// interning structures (pid slice, distinct list, lookup maps).
// Editing the clone leaves l fully intact, so estimators holding l
// keep working concurrently while an edit is applied.
func (l *Labeling) CloneForEdit() *Labeling {
	c := &Labeling{
		Table:    l.Table,
		pids:     append([]*bitset.Bitset(nil), l.pids...),
		distinct: append([]*bitset.Bitset(nil), l.distinct...),
		index:    maps.Clone(l.index),
	}
	return c
}

// PidChange records one node whose path id changed during an
// incremental relabeling: the statistics maintenance moves the node's
// table contributions from Old to New.
type PidChange struct {
	Node *xmltree.Node
	Old  *bitset.Bitset
	New  *bitset.Bitset
}

// RelabelSubtree labels every node of a freshly attached subtree
// bottom-up from the encoding table, interning each pid and recording
// it in overrides. The subtree must already hang off the document (its
// Parent chain supplies the path prefix). A leaf whose root-to-leaf
// path is missing from the table yields an error wrapping
// ErrPathUnknown and leaves overrides untouched; the caller discards
// the clone in that case.
func (l *Labeling) RelabelSubtree(sub *xmltree.Node, overrides map[*xmltree.Node]*bitset.Bitset) error {
	lb := &Labeler{l: l, keep: true}
	if sub.Parent != nil {
		lb.path.buf = []byte(sub.Parent.PathString())
	}
	if err := sub.Replay(handler{lb}); err != nil {
		return err
	}
	i := 0
	sub.Walk(func(n *xmltree.Node) bool {
		overrides[n] = lb.pids[i]
		i++
		return true
	})
	return nil
}

// RecomputeAncestors re-derives the path id of n and its ancestors
// after n's children changed, stopping as soon as a node's pid comes
// out unchanged (an unchanged pid cannot alter its parent's bit-or).
// Child pids are read from overrides when present, else from the
// still-valid pre-edit Ord index. A node that became a leaf is
// re-encoded from the table; a missing path yields an error wrapping
// ErrPathUnknown. Every change is recorded in both overrides and the
// returned list.
func (l *Labeling) RecomputeAncestors(n *xmltree.Node, overrides map[*xmltree.Node]*bitset.Bitset) ([]PidChange, error) {
	var changes []PidChange
	for cur := n; cur != nil; cur = cur.Parent {
		var pid *bitset.Bitset
		if cur.IsLeaf() {
			var err error
			if pid, err = l.Table.leafPid([]byte(cur.PathString())); err != nil {
				return nil, err
			}
		} else {
			pid = bitset.New(l.Table.NumPaths())
			for _, c := range cur.Children {
				cp := overrides[c]
				if cp == nil {
					cp = l.pids[c.Ord]
				}
				pid.Or(cp)
			}
		}
		np := l.intern(pid)
		old := l.pids[cur.Ord]
		if np == old {
			break
		}
		overrides[cur] = np
		changes = append(changes, PidChange{Node: cur, Old: old, New: np})
	}
	return changes, nil
}

// Rebind rebuilds the Ord-indexed pid slice after a subtree edit of
// doc, the document l labels: it walks the edited tree in preorder (the
// order Renumber will assign), reading each node's pid from overrides
// when present and from the node's pre-edit Ord otherwise. It must run
// before Document.Renumber, while the old Ord values are still valid.
func (l *Labeling) Rebind(doc *xmltree.Document, overrides map[*xmltree.Node]*bitset.Bitset) {
	newPids := make([]*bitset.Bitset, 0, len(l.pids))
	doc.Walk(func(n *xmltree.Node) bool {
		p := overrides[n]
		if p == nil {
			p = l.pids[n.Ord]
		}
		newPids = append(newPids, p)
		return true
	})
	l.pids = newPids
}
