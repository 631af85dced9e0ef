package xpath

import (
	"fmt"

	"xpathest/internal/guard"
)

// TreeNode is one node of the query-tree form of a path: a single
// element test, attached to its structural parent by a downward axis.
// Order-axis steps are re-anchored during conversion — a
// following-sibling step becomes a Child-axis node under the context's
// parent plus an order edge, and a following step becomes a
// Descendant-axis node there (the paper's Section 5 view of
// Q⃗ = q1[/q2/folls::q3], where the first nodes of q2 and q3 are both
// children of q1's last node).
type TreeNode struct {
	Tag      string // "" only for the virtual root
	Axis     Axis   // Child or Descendant, relative to Parent
	Target   bool
	Trunk    bool // on the outermost path (the paper's trunk part)
	Parent   *TreeNode
	Children []*TreeNode
	Step     *Step // originating step; nil for the virtual root
}

// IsVRoot reports whether the node is the virtual root above the
// document element.
func (n *TreeNode) IsVRoot() bool { return n.Step == nil }

// OrderEdge records that, among the children of Parent, the match of
// Before must precede the match of After. SiblingOnly edges come from
// following-sibling/preceding-sibling (both endpoints are the direct
// children); non-sibling edges come from following/preceding, where
// the After (or Before) endpoint is anchored at the child of Parent on
// the path down to it.
type OrderEdge struct {
	Parent        *TreeNode
	Before, After *TreeNode
	SiblingOnly   bool
}

// Tree is the query-tree form of a parsed path. Path is the path it
// was built from: every node's Step is a step of Path, so a rewrite
// that matches steps by identity (the Example 5.3 conversion) can
// walk Path and compare against the nodes.
type Tree struct {
	Path   *Path
	VRoot  *TreeNode
	Nodes  []*TreeNode // all element-test nodes, preorder
	Edges  []OrderEdge
	Target *TreeNode
}

// BuildTree converts a parsed path into its query tree. It returns an
// error when an order-axis step cannot be anchored: the context of an
// order step must itself be attached to its parent by the Child axis
// (otherwise the shared parent of the siblings is not a query node),
// which is exactly the standardized query shape of Section 5.
func BuildTree(p *Path) (*Tree, error) {
	target, err := p.TargetStep()
	if err != nil {
		return nil, err
	}
	t := &Tree{Path: p, VRoot: &TreeNode{}}
	if err := t.attachPath(t.VRoot, p, true, target); err != nil {
		return nil, err
	}
	if t.Target == nil {
		return nil, fmt.Errorf("xpath: target step not reached during tree build: %w", guard.ErrInternal)
	}
	return t, nil
}

// attachPath attaches a step sequence under ctx. trunk marks the
// outermost path.
func (t *Tree) attachPath(ctx *TreeNode, p *Path, trunk bool, target *Step) error {
	cur := ctx
	for _, s := range p.Steps {
		var (
			parent *TreeNode
			axis   Axis
			edge   *OrderEdge
		)
		switch s.Axis {
		case Child, Descendant:
			parent, axis = cur, s.Axis
		case FollowingSibling, PrecedingSibling, Following, Preceding:
			if cur.IsVRoot() {
				return fmt.Errorf("xpath: order axis %v has no context node: %w", s.Axis, guard.ErrMalformedQuery)
			}
			if cur.Axis != Child {
				return fmt.Errorf("xpath: order axis %v after a %v step cannot be anchored (standardized queries attach siblings under an explicit parent): %w", s.Axis, cur.Axis, guard.ErrMalformedQuery)
			}
			parent = cur.Parent
			if s.Axis.IsSibling() {
				axis = Child
			} else {
				axis = Descendant
			}
			edge = &OrderEdge{Parent: parent, SiblingOnly: s.Axis.IsSibling()}
		default:
			return fmt.Errorf("xpath: unknown axis %v: %w", s.Axis, guard.ErrMalformedQuery)
		}

		n := &TreeNode{
			Tag:    s.Tag,
			Axis:   axis,
			Target: s == target,
			Trunk:  trunk,
			Parent: parent,
			Step:   s,
		}
		parent.Children = append(parent.Children, n)
		t.Nodes = append(t.Nodes, n)
		if n.Target {
			if t.Target != nil {
				return fmt.Errorf("xpath: duplicate target step: %w", guard.ErrMalformedQuery)
			}
			t.Target = n
		}
		if edge != nil {
			if s.Axis == FollowingSibling || s.Axis == Following {
				edge.Before, edge.After = cur, n
			} else {
				edge.Before, edge.After = n, cur
			}
			t.Edges = append(t.Edges, *edge)
		}

		for _, pred := range s.Preds {
			if err := t.attachPath(n, pred, false, target); err != nil {
				return err
			}
		}
		cur = n
	}
	return nil
}

// OrderEdgesAt returns the order edges anchored at the given parent
// node.
func (t *Tree) OrderEdgesAt(parent *TreeNode) []OrderEdge {
	var out []OrderEdge
	for _, e := range t.Edges {
		if e.Parent == parent {
			out = append(out, e)
		}
	}
	return out
}

// InOrderEdge reports whether the node is an endpoint of any order
// edge.
func (t *Tree) InOrderEdge(n *TreeNode) bool {
	for _, e := range t.Edges {
		if e.Before == n || e.After == n {
			return true
		}
	}
	return false
}
