package xpathest

import (
	"bytes"
	"fmt"
	"io"

	"xpathest/internal/delta"
	"xpathest/internal/guard"
	"xpathest/internal/xmltree"
)

// EditOp is one public edit operation: a subtree insertion or removal
// against the current document tree. Nodes are addressed by child-index
// paths from the root (Loc), resolved when the op applies — later ops
// in a script see the effects of earlier ones.
type EditOp struct {
	// Insert distinguishes the two kinds: true splices XML in, false
	// removes the subtree at Loc.
	Insert bool `json:"insert"`

	// Loc addresses the insertion parent (Insert) or the subtree root
	// to remove. Empty means the document root.
	Loc []int `json:"loc"`

	// Index is the insertion position among the parent's children,
	// 0 ≤ Index ≤ len(children). Insert only.
	Index int `json:"index,omitempty"`

	// XML is the inserted subtree, serialized. Insert only.
	XML string `json:"xml,omitempty"`
}

// EditScript is an ordered list of edit ops applied as one unit by
// Summary.Apply.
type EditScript struct {
	Ops []EditOp `json:"ops"`
}

// toDelta converts the public script to the internal representation,
// parsing each insert's XML payload.
func (s EditScript) toDelta() (delta.Script, error) {
	var out delta.Script
	for i, op := range s.Ops {
		if op.Insert {
			sub, err := xmltree.ParseString(op.XML)
			if err != nil {
				return delta.Script{}, fmt.Errorf("xpathest: edit op %d: parsing insert payload: %w", i, err)
			}
			out.Ops = append(out.Ops, delta.Op{Kind: delta.Insert, Loc: op.Loc, Index: op.Index, Subtree: sub.Root})
		} else {
			out.Ops = append(out.Ops, delta.Op{Kind: delta.Delete, Loc: op.Loc})
		}
	}
	return out, nil
}

// editScriptFromDelta is the inverse conversion, serializing insert
// subtrees back to XML.
func editScriptFromDelta(ds delta.Script) (EditScript, error) {
	var out EditScript
	for i, op := range ds.Ops {
		pub := EditOp{Insert: op.Kind == delta.Insert, Loc: op.Loc, Index: op.Index}
		if op.Kind == delta.Insert {
			var buf bytes.Buffer
			if err := (&xmltree.Document{Root: op.Subtree}).WriteXML(&buf, false); err != nil {
				return EditScript{}, fmt.Errorf("xpathest: edit op %d: serializing insert payload: %w", i, err)
			}
			pub.XML = buf.String()
		}
		out.Ops = append(out.Ops, pub)
	}
	return out, nil
}

// Encode writes the script as the versioned, checksummed binary stream
// DecodeEditScript reads — the wire format of the server's delta
// endpoint.
func (s EditScript) Encode(w io.Writer) error {
	ds, err := s.toDelta()
	if err != nil {
		return err
	}
	return delta.Encode(w, ds)
}

// DecodeEditScript reads a stream written by Encode under a total byte
// budget (0 = unlimited). The decoder validates every declared count
// before allocating and verifies the trailing checksum.
func DecodeEditScript(r io.Reader, maxBytes int64) (EditScript, error) {
	ds, err := delta.DecodeLimited(r, maxBytes)
	if err != nil {
		return EditScript{}, err
	}
	return editScriptFromDelta(ds)
}

// ApplyResult reports one Summary.Apply call.
type ApplyResult struct {
	// Summary estimates the edited document; it supersedes the summary
	// Apply was called on.
	Summary *Summary

	// Inverse undoes the script: applying it to the new summary
	// restores the original document and, bit-for-bit, its summary.
	Inverse EditScript

	// FastOps counts ops maintained incrementally; RebuildOps ops that
	// changed the document's path structure and forced a rebuild of the
	// derived tables.
	FastOps, RebuildOps int
}

// Apply edits the summary's document in place and incrementally
// maintains the summary structures: the PathId-Frequency table, the
// Path-Order tables and only the touched histogram regions are updated
// — untouched regions keep their instances and serialize byte-identical
// to before. The result is indistinguishable from rebuilding: the new
// summary's Save bytes and every estimate match a from-scratch
// BuildSummary on the edited document exactly (the edit-script oracle
// in internal/difftest enforces this bit-for-bit).
//
// The receiver is not changed; it keeps describing the pre-edit state
// but must no longer be used once Apply returns (its document moved
// on; for Exact summaries, even its backing tables did). Summaries
// without a document — ReadSummary, SummarizeStream — cannot Apply.
// Each document serializes its Apply calls, and each successful call
// advances the epoch (Summary.Epoch). The returned summary has a new
// ID, so EstimateCache entries of the superseded state are never
// served for it. If a mid-script op fails, the document keeps the
// applied prefix, the epoch still advances, and no new summary is
// returned.
func (s *Summary) Apply(sc EditScript) (*ApplyResult, error) {
	d := s.src
	if d == nil {
		return nil, fmt.Errorf("xpathest: summary carries no document (loaded or streamed summaries cannot apply edits): %w", guard.ErrInvalidArgument)
	}
	ds, err := sc.toDelta()
	if err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}

	d.editMu.Lock()
	defer d.editMu.Unlock()
	if s.epoch != d.editEpoch {
		return nil, fmt.Errorf("xpathest: summary is stale: built at epoch %d, document at %d — apply to the latest summary: %w", s.epoch, d.editEpoch, guard.ErrInvalidArgument)
	}

	pv, ov := s.opts.thresholds()
	st := &delta.State{Doc: d.doc, Lab: d.lab, Tables: d.tables, PS: s.ps, OS: s.os}
	res, applyErr := delta.Apply(st, ds, delta.Options{PVariance: pv, OVariance: ov})
	if applyErr != nil && res.Applied == 0 {
		// Nothing was mutated; the document state stands.
		return nil, applyErr
	}

	// The tree changed (fully or as an applied prefix): resynchronize
	// the labeling and tables, drop the evaluator and executor indexed
	// over the old tree (the next exact call rebuilds them), and
	// advance the epoch.
	d.lab = st.Lab
	d.tables = st.Tables
	d.execMu.Lock()
	d.ev, d.exec = nil, nil
	d.execMu.Unlock()
	d.editEpoch++
	if applyErr != nil {
		return nil, applyErr
	}

	ns := newSummary(s.opts, st.Lab, st.Tables, st.PS, st.OS)
	ns.src, ns.epoch = d, d.editEpoch
	inv, err := editScriptFromDelta(res.Inverse)
	if err != nil {
		return nil, err
	}
	return &ApplyResult{Summary: ns, Inverse: inv, FastOps: res.FastOps, RebuildOps: res.RebuildOps}, nil
}
