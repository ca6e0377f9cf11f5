package maintain

import (
	"encoding/json"
	"fmt"

	"xmlviews/internal/nodeid"
	"xmlviews/internal/xmltree"
)

// UpdateJSON is the wire form of one update, used by the xvserve /update
// endpoint and the `xv apply` subcommand:
//
//	{"op":"insert","parent":"1.3","before":"1.3.5","subtree":"name \"pen\""}
//	{"op":"delete","target":"1.3.5"}
//	{"op":"rename","target":"1.3","label":"item"}
//	{"op":"settext","target":"1.3","value":"7"}
//
// IDs are dotted Dewey identifiers; subtrees use the parenthesized tree
// notation of xmltree.ParseParen.
type UpdateJSON struct {
	Op      string `json:"op"`
	Parent  string `json:"parent,omitempty"`
	Before  string `json:"before,omitempty"`
	Subtree string `json:"subtree,omitempty"`
	Target  string `json:"target,omitempty"`
	Label   string `json:"label,omitempty"`
	Value   string `json:"value,omitempty"`
}

// updatesEnvelope is the request body form: {"updates":[...]}.
type updatesEnvelope struct {
	Updates []UpdateJSON `json:"updates"`
}

// ParseUpdates decodes an update batch from JSON: either a bare array of
// update objects or an {"updates": [...]} envelope.
func ParseUpdates(data []byte) ([]xmltree.Update, error) {
	var raw []UpdateJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		var env updatesEnvelope
		if err2 := json.Unmarshal(data, &env); err2 != nil || env.Updates == nil {
			return nil, fmt.Errorf("maintain: update batch is neither an array nor an {\"updates\":[...]} object: %v", err)
		}
		raw = env.Updates
	}
	out := make([]xmltree.Update, 0, len(raw))
	for i, r := range raw {
		u, err := r.Decode()
		if err != nil {
			return nil, fmt.Errorf("maintain: update %d: %w", i, err)
		}
		out = append(out, u)
	}
	return out, nil
}

// Decode converts the wire form to a typed update.
func (r UpdateJSON) Decode() (xmltree.Update, error) {
	id := func(field, s string, required bool) (nodeid.ID, error) {
		if s == "" {
			if required {
				return nil, fmt.Errorf("%s op needs %q", r.Op, field)
			}
			return nil, nil
		}
		v, err := nodeid.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("bad %s: %v", field, err)
		}
		return v, nil
	}
	switch r.Op {
	case "insert":
		parent, err := id("parent", r.Parent, true)
		if err != nil {
			return xmltree.Update{}, err
		}
		before, err := id("before", r.Before, false)
		if err != nil {
			return xmltree.Update{}, err
		}
		if r.Subtree == "" {
			return xmltree.Update{}, fmt.Errorf("insert op needs a subtree")
		}
		sub, err := xmltree.ParseParen(r.Subtree)
		if err != nil {
			return xmltree.Update{}, fmt.Errorf("bad subtree: %v", err)
		}
		return xmltree.Update{Kind: xmltree.UpdateInsert, Parent: parent, Before: before, Subtree: sub}, nil
	case "delete":
		target, err := id("target", r.Target, true)
		if err != nil {
			return xmltree.Update{}, err
		}
		return xmltree.Update{Kind: xmltree.UpdateDelete, Target: target}, nil
	case "rename":
		target, err := id("target", r.Target, true)
		if err != nil {
			return xmltree.Update{}, err
		}
		if r.Label == "" {
			return xmltree.Update{}, fmt.Errorf("rename op needs a label")
		}
		return xmltree.Update{Kind: xmltree.UpdateRename, Target: target, Label: r.Label}, nil
	case "settext":
		target, err := id("target", r.Target, true)
		if err != nil {
			return xmltree.Update{}, err
		}
		return xmltree.Update{Kind: xmltree.UpdateSetValue, Target: target, Value: r.Value}, nil
	}
	return xmltree.Update{}, fmt.Errorf("unknown op %q (want insert, delete, rename or settext)", r.Op)
}

// Encode converts a typed update to its wire form.
func Encode(u xmltree.Update) UpdateJSON {
	out := UpdateJSON{Op: u.Kind.String()}
	switch u.Kind {
	case xmltree.UpdateInsert:
		out.Parent = u.Parent.String()
		if !u.Before.IsNull() {
			out.Before = u.Before.String()
		}
		if u.Subtree != nil && u.Subtree.Root != nil {
			out.Subtree = u.Subtree.Root.String()
		}
	case xmltree.UpdateDelete:
		out.Target = u.Target.String()
	case xmltree.UpdateRename:
		out.Target = u.Target.String()
		out.Label = u.Label
	case xmltree.UpdateSetValue:
		out.Target = u.Target.String()
		out.Value = u.Value
	}
	return out
}

// EncodeUpdates renders a batch in the {"updates":[...]} envelope form.
func EncodeUpdates(ups []xmltree.Update) ([]byte, error) {
	env := updatesEnvelope{Updates: make([]UpdateJSON, len(ups))}
	for i, u := range ups {
		env.Updates[i] = Encode(u)
	}
	return json.Marshal(env)
}
