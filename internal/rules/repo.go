package rules

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gallery/internal/clock"
)

// Repo is the versioned rule repository. The paper stores rules in a Git
// repo to get version control, peer review, and a validation gate for free
// (§3.7.2); this is the same model as a content-hashed commit log: every
// commit captures the complete rule set, validation runs before anything
// lands, and any historical state can be checked out again by hash.
type Repo struct {
	mu      sync.Mutex
	clk     clock.Clock
	commits []Commit
	// head is the active rule set, by rule UUID; compiled is the same set
	// sorted by UUID with its expressions parsed, rebuilt by every commit.
	head     map[string]*Rule
	compiled []*compiledRule
}

// Commit is one immutable repository state.
type Commit struct {
	Hash    string
	Author  string
	Message string
	Time    time.Time
	// Rules is the full rule set as of this commit, by UUID.
	Rules map[string]*Rule
}

// ErrNoCommit reports an unknown commit hash.
var ErrNoCommit = errors.New("rules: no such commit")

// NewRepo returns an empty repository.
func NewRepo(clk clock.Clock) *Repo {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Repo{clk: clk, head: make(map[string]*Rule)}
}

// Commit validates and lands a change: upserts the given rules and deletes
// the listed UUIDs, producing a new immutable commit. Any invalid rule
// aborts the whole commit — the validation gate that keeps bad rules out
// of production.
func (r *Repo) Commit(author, message string, upserts []*Rule, deletes []string) (Commit, error) {
	for _, rule := range upserts {
		if err := rule.Validate(); err != nil {
			return Commit{}, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make(map[string]*Rule, len(r.head)+len(upserts))
	for id, rule := range r.head {
		next[id] = rule
	}
	for _, id := range deletes {
		if _, ok := next[id]; !ok {
			return Commit{}, fmt.Errorf("rules: cannot delete unknown rule %s", id)
		}
		delete(next, id)
	}
	for _, rule := range upserts {
		cp := *rule
		next[rule.UUID] = &cp
	}
	compiled := make([]*compiledRule, 0, len(next))
	for _, rule := range sortRules(next) {
		c, err := compile(rule)
		if err != nil {
			return Commit{}, err
		}
		compiled = append(compiled, c)
	}
	c := Commit{
		Author:  author,
		Message: message,
		Time:    r.clk.Now(),
		Rules:   next,
	}
	hash, err := hashCommit(c, r.lastHashLocked())
	if err != nil {
		return Commit{}, err
	}
	c.Hash = hash
	r.commits = append(r.commits, c)
	r.head, r.compiled = next, compiled
	return c, nil
}

// active returns the active rule set compiled, sorted by UUID. The slice
// and its rules are shared: callers must not change them.
func (r *Repo) active() []*compiledRule {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compiled
}

// activeRule returns the compiled active version of one rule.
func (r *Repo) activeRule(id string) (*compiledRule, bool) {
	active := r.active()
	i, ok := slices.BinarySearchFunc(active, id, func(c *compiledRule, id string) int { return strings.Compare(c.UUID, id) })
	if !ok {
		return nil, false
	}
	return active[i], true
}

func (r *Repo) lastHashLocked() string {
	if len(r.commits) == 0 {
		return ""
	}
	return r.commits[len(r.commits)-1].Hash
}

// hashCommit derives a stable content hash chained to the parent, like a
// Git commit id.
func hashCommit(c Commit, parent string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "parent %s\nauthor %s\nmessage %s\ntime %d\n",
		parent, c.Author, c.Message, c.Time.UnixNano())
	ids := make([]string, 0, len(c.Rules))
	for id := range c.Rules {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, err := c.Rules[id].Canonical()
		if err != nil {
			return "", fmt.Errorf("rules: hash rule %s: %w", id, err)
		}
		h.Write([]byte(id))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Active returns the current rule set as a sorted slice.
func (r *Repo) Active() []*Rule {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortRules(r.head)
}

// Get returns the active version of one rule.
func (r *Repo) Get(id string) (*Rule, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rule, ok := r.head[id]
	if !ok {
		return nil, false
	}
	cp := *rule
	return &cp, true
}

// ActiveByTeam returns the current rules belonging to one team, the unit
// of ownership in the paper's repo layout ("their allocated directory").
func (r *Repo) ActiveByTeam(team string) []*Rule {
	r.mu.Lock()
	defer r.mu.Unlock()
	subset := make(map[string]*Rule)
	for id, rule := range r.head {
		if rule.Team == team {
			subset[id] = rule
		}
	}
	return sortRules(subset)
}

// History returns all commits, oldest first.
func (r *Repo) History() []Commit {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Commit, len(r.commits))
	copy(out, r.commits)
	return out
}

// Rollback makes the rule set of an earlier commit active again, recorded
// as a new commit (history is never rewritten).
func (r *Repo) Rollback(hash, author string) (Commit, error) {
	r.mu.Lock()
	var target *Commit
	for i := range r.commits {
		if r.commits[i].Hash == hash {
			target = &r.commits[i]
			break
		}
	}
	r.mu.Unlock()
	if target == nil {
		return Commit{}, fmt.Errorf("%w: %s", ErrNoCommit, hash)
	}
	rules := make([]*Rule, 0, len(target.Rules))
	for _, rule := range target.Rules {
		rules = append(rules, rule)
	}
	// Compute deletions: anything active now but absent at the target.
	r.mu.Lock()
	var deletes []string
	for id := range r.head {
		if _, ok := target.Rules[id]; !ok {
			deletes = append(deletes, id)
		}
	}
	r.mu.Unlock()
	return r.Commit(author, "rollback to "+hash[:12], rules, deletes)
}

func sortRules(m map[string]*Rule) []*Rule {
	out := make([]*Rule, 0, len(m))
	for _, rule := range m {
		cp := *rule
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UUID < out[j].UUID })
	return out
}
