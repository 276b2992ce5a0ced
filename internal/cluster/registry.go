package cluster

import (
	"fmt"
	"sort"
	"sync"

	"vedliot/internal/accel"
	"vedliot/internal/artifact"
	"vedliot/internal/inference"
	"vedliot/internal/release"
)

// Registry is the fleet's model registry: deployment artifacts
// (.vedz models) by name, plus the fleet-wide compiled-plan cache they
// share. A scheduler with a registry deploys replicas from artifacts —
// cold-start per replica is load + bind instead of calibrate + lower,
// because every (artifact digest, backend, schema) triple lowers at
// most once no matter how many replicas, chassis or schedulers point
// at the registry.
//
// A registry with a non-empty release.Policy is a gated release
// channel: models enter only through AddRelease with a bundle the
// policy verifies (signer, transparency-log inclusion, witnessed
// checkpoint), and the scheduler re-verifies at every DeployArtifact —
// an artifact that merely parses never reaches a replica.
type Registry struct {
	mu      sync.Mutex
	models  map[string]*artifact.Model
	bundles map[string]*release.Bundle // by artifact digest
	policy  *release.Policy
	plans   *inference.PlanCache
}

// NewRegistry creates an empty, ungated registry with a fresh plan
// cache.
func NewRegistry() *Registry {
	return &Registry{
		models:  make(map[string]*artifact.Model),
		bundles: make(map[string]*release.Bundle),
		plans:   inference.NewPlanCache(),
	}
}

// SetPolicy installs the registry's release policy. A non-empty policy
// gates every later Add/AddRelease and every DeployArtifact; models
// already registered are not re-checked until deployment, where the
// gate catches them.
func (r *Registry) SetPolicy(p *release.Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = p
}

// Policy returns the registry's release policy (nil when ungated).
func (r *Registry) Policy() *release.Policy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy
}

// Add registers a loaded artifact under its model name. The model must
// carry a digest (i.e. come from artifact.Load/Decode or a Save) —
// the digest is the plan-cache identity. A registry with a non-empty
// policy refuses Add outright: gated models enter through AddRelease.
func (r *Registry) Add(m *artifact.Model) error {
	return r.AddRelease(m, nil)
}

// AddRelease registers an artifact together with its release bundle.
// When the registry has a non-empty policy the bundle must satisfy it
// (valid signer envelope for this digest, transparency-log inclusion
// proof, witnessed checkpoint); without a policy the bundle is merely
// retained for later gating.
func (r *Registry) AddRelease(m *artifact.Model, b *release.Bundle) error {
	if m == nil || m.Graph == nil {
		return fmt.Errorf("cluster: registry: nil model")
	}
	if m.Digest == "" {
		return fmt.Errorf("cluster: registry: model %q has no content digest (use artifact.Load or Save first)", m.Graph.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.policy.Empty() {
		if err := r.policy.Verify(m.Digest, b); err != nil {
			return fmt.Errorf("cluster: registry: refusing model %q: %w", m.Graph.Name, err)
		}
	}
	if _, dup := r.models[m.Graph.Name]; dup {
		return fmt.Errorf("cluster: registry: model %q already registered", m.Graph.Name)
	}
	r.models[m.Graph.Name] = m
	if b != nil {
		r.bundles[m.Digest] = b
	}
	return nil
}

// Bundle returns the release bundle registered for an artifact digest,
// nil when none was provided.
func (r *Registry) Bundle(digest string) *release.Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bundles[digest]
}

// Authorize re-verifies the release policy for a registered digest —
// the deploy-time gate. It exists separately from AddRelease so a
// policy installed (or tightened) after registration still bites
// before any replica runs the artifact.
func (r *Registry) Authorize(digest string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.policy.Empty() {
		return nil
	}
	return r.policy.Verify(digest, r.bundles[digest])
}

// LoadFile loads a .vedz artifact from disk and registers it (ungated
// registries only; gated ones take the artifact and its release bundle
// through AddRelease).
func (r *Registry) LoadFile(path string) (*artifact.Model, error) {
	m, err := artifact.Load(path)
	if err != nil {
		return nil, err
	}
	if err := r.Add(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Get returns the registered model by name.
func (r *Registry) Get(name string) (*artifact.Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("cluster: registry: model %q not registered", name)
	}
	return m, nil
}

// Names lists the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Plans exposes the registry's fleet-wide plan cache (telemetry,
// direct compilation against registry-managed keys).
func (r *Registry) Plans() *inference.PlanCache {
	return r.plans
}

// planKey builds the compiled-plan identity for deploying one artifact
// on one backend: the artifact content digest (which covers graph,
// weights and embedded schema), the backend name, the backend's
// precision when it is an accelerator (one device model can in
// principle run at several precisions), and the digest of the
// activation schema actually used (which can differ from the embedded
// one when the scheduler's Config overrides it). Everything that
// changes the lowered plan is in the key — the cache-invalidation
// invariant DESIGN.md documents.
func planKey(digest string, b inference.Backend, schemaDigest string) string {
	key := digest + "|" + b.Name()
	if ab, ok := b.(*accel.Backend); ok {
		key += "|" + ab.Precision.String()
	}
	if schemaDigest != "" {
		key += "|" + schemaDigest
	}
	return key
}
