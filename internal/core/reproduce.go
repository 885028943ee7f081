package core

import (
	"bytes"
	"context"
	"fmt"

	"gallery/internal/uuid"
)

// The paper's §6.2 lesson: "Users need the ability to recreate models or
// replay history in order to understand their production flows and debug
// performance." Gallery stores the full training recipe (training data
// pointer and version, framework, code pointer, seed, hyperparameters,
// features) exactly so an instance can be rebuilt on demand. Gallery stays
// model neutral: the application supplies the Trainer; Gallery supplies
// the recorded recipe and judges the outcome.

// Trainer rebuilds a serialized model from an instance's recorded recipe.
type Trainer func(recipe *Instance) ([]byte, error)

// ReproduceReport is the outcome of a reproduction attempt.
type ReproduceReport struct {
	InstanceID uuid.UUID
	// Exact reports a bit-identical rebuild. The paper notes exactness is
	// not always achievable "due to the randomness introduced in training
	// the models"; a recorded seed is what makes it possible.
	Exact bool
	// OriginalSize and RebuiltSize let callers eyeball near-misses.
	OriginalSize int
	RebuiltSize  int
	// RecipeGaps lists reproducibility metadata the instance is missing —
	// the reason a rebuild may be impossible or inexact.
	RecipeGaps []string
}

// Reproduce rebuilds an instance with the supplied trainer and compares
// the result against the stored blob. The rebuilt bytes are returned so
// callers can deploy or inspect them.
func (g *Registry) Reproduce(id uuid.UUID, train Trainer) (*ReproduceReport, []byte, error) {
	in, err := g.GetInstance(context.Background(), id)
	if err != nil {
		return nil, nil, err
	}
	original, err := g.FetchBlob(context.Background(), id)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reproduce %s: original blob unavailable: %w", id, err)
	}
	comp, err := g.Completeness(id)
	if err != nil {
		return nil, nil, err
	}
	rebuilt, err := train(in)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reproduce %s: trainer failed: %w", id, err)
	}
	rep := &ReproduceReport{
		InstanceID:   id,
		Exact:        bytes.Equal(original, rebuilt),
		OriginalSize: len(original),
		RebuiltSize:  len(rebuilt),
		RecipeGaps:   comp.Missing,
	}
	return rep, rebuilt, nil
}
