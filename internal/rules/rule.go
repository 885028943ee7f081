// Package rules implements Gallery's orchestration rule engine (paper
// §3.7): Given/When/Then rules over model metadata and metrics that either
// select a model to serve or trigger callback actions such as deployment,
// alerting, and retraining.
//
// The design mirrors the paper's:
//
//   - two rule templates — model selection rules and action rules
//     (§3.7.1, Listings 1–2);
//   - rule conditions written in an expression language (the paper uses
//     JEXL; here, internal/expr);
//   - rules stored in a versioned repository with validation before a
//     commit can affect production (the paper uses a Git repo; here,
//     a content-hashed commit log — see repo.go);
//   - evaluation is event based: a direct request to the rule trigger, or
//     an update to metadata/metrics referenced by a registered rule
//     (§3.7.2, Fig. 8), flowing through a job queue; and
//   - framework-agnostic callback actions registered by applications,
//     plus a default set (alerting, logging).
package rules

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"gallery/internal/expr"
)

// Kind distinguishes the two rule templates.
type Kind string

// Rule kinds.
const (
	KindSelection Kind = "selection"
	KindAction    Kind = "action"
)

// ActionRef names a registered callback with its parameters.
type ActionRef struct {
	Action string         `json:"action"`
	Params map[string]any `json:"params,omitempty"`
}

// Rule is one Given/When/Then rule. Given and When are boolean expressions
// over a candidate instance's environment (model_name, model_domain, city,
// metrics.*, ...). For selection rules, ModelSelection is a comparator
// expression over two candidate environments bound to a and b, true when a
// is preferred — e.g. "a.created > b.created" for freshest-first.
type Rule struct {
	UUID string `json:"uuid"`
	Team string `json:"team"`
	Name string `json:"name"`
	Kind Kind   `json:"kind"`

	Given       string `json:"given,omitempty"`
	When        string `json:"when,omitempty"`
	Environment string `json:"environment,omitempty"`

	ModelSelection string      `json:"model_selection,omitempty"`
	Actions        []ActionRef `json:"callback_actions,omitempty"`
}

// ErrInvalidRule reports a rule that fails validation.
var ErrInvalidRule = errors.New("rules: invalid rule")

// Validate checks structural and syntactic correctness: this is the test
// gate the paper runs before a rule checked into the repo can impact
// production.
func (r *Rule) Validate() error {
	if r.UUID == "" {
		return fmt.Errorf("%w: missing uuid", ErrInvalidRule)
	}
	if r.Team == "" {
		return fmt.Errorf("%w %s: missing team", ErrInvalidRule, r.UUID)
	}
	switch r.Kind {
	case KindSelection:
		if r.ModelSelection == "" {
			return fmt.Errorf("%w %s: selection rule needs model_selection", ErrInvalidRule, r.UUID)
		}
		if len(r.Actions) != 0 {
			return fmt.Errorf("%w %s: selection rule cannot have callback_actions", ErrInvalidRule, r.UUID)
		}
		if _, err := expr.Parse(r.ModelSelection); err != nil {
			return fmt.Errorf("%w %s: model_selection: %v", ErrInvalidRule, r.UUID, err)
		}
	case KindAction:
		if len(r.Actions) == 0 {
			return fmt.Errorf("%w %s: action rule needs callback_actions", ErrInvalidRule, r.UUID)
		}
		if r.ModelSelection != "" {
			return fmt.Errorf("%w %s: action rule cannot have model_selection", ErrInvalidRule, r.UUID)
		}
		for i, a := range r.Actions {
			if a.Action == "" {
				return fmt.Errorf("%w %s: callback_actions[%d] has no action name", ErrInvalidRule, r.UUID, i)
			}
		}
	default:
		return fmt.Errorf("%w %s: unknown kind %q", ErrInvalidRule, r.UUID, r.Kind)
	}
	for field, src := range map[string]string{"given": r.Given, "when": r.When} {
		if src == "" {
			continue
		}
		if _, err := expr.Parse(src); err != nil {
			return fmt.Errorf("%w %s: %s: %v", ErrInvalidRule, r.UUID, field, err)
		}
	}
	return nil
}

// Condition returns the conjunction of Given and When as parsed nodes.
// Either may be empty (treated as true).
func (r *Rule) Condition() (given, when expr.Node, err error) {
	if r.Given != "" {
		given, err = expr.Parse(r.Given)
		if err != nil {
			return nil, nil, err
		}
	}
	if r.When != "" {
		when, err = expr.Parse(r.When)
		if err != nil {
			return nil, nil, err
		}
	}
	return given, when, nil
}

// compiledRule is an active rule with its expressions parsed once, when
// the commit that made it active landed, so that evaluating it per event
// parses nothing. It is shared and never changed.
type compiledRule struct {
	*Rule
	given, when, selection expr.Node
	// watched lists the top-level identifiers given and when reference:
	// the engine re-evaluates the rule on an update event naming one (paper
	// §3.7.2: "updating any metadata or metrics specific in a registered
	// rule").
	watched []string
}

// compile parses r's expressions and lists the identifiers its conditions
// watch. A rule that passed Validate compiles.
func compile(r *Rule) (*compiledRule, error) {
	given, when, err := r.Condition()
	if err != nil {
		return nil, err
	}
	c := &compiledRule{Rule: r, given: given, when: when}
	if r.ModelSelection != "" {
		if c.selection, err = expr.Parse(r.ModelSelection); err != nil {
			return nil, err
		}
	}
	for _, n := range []expr.Node{given, when} {
		if n == nil {
			continue
		}
		for _, id := range expr.Idents(n) {
			if !slices.Contains(c.watched, id) {
				c.watched = append(c.watched, id)
			}
		}
	}
	return c, nil
}

// MarshalJSON/UnmarshalJSON use the plain struct encoding; Canonical
// produces the stable byte form used for commit hashing.
func (r *Rule) Canonical() ([]byte, error) {
	return json.Marshal(r)
}

// ParseRule decodes and validates a rule from JSON.
func ParseRule(data []byte) (*Rule, error) {
	var r Rule
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRule, err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
