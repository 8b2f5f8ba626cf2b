// Package fbnet implements FBNet, Robotron's vendor-agnostic, network-wide
// object store (SIGCOMM '16, §4).
//
// Every network component — physical (devices, linecards, interfaces,
// circuits) or logical (BGP sessions, IP prefixes) — is a typed object
// instantiated from a model. Models declare value fields (object data) and
// relationship fields (typed references to other objects); each
// relationship also creates a reverse connection on the referenced model
// (§4.2.1). Models are partitioned into the Desired group, maintained by
// engineers through design tools and driving config generation, and the
// Derived group, populated from live network state by monitoring (§4.1.2).
//
// The store persists objects in a relstore database — one table per model,
// relationship fields as foreign keys — mirroring the paper's MySQL/Django
// implementation, and exposes read and write APIs: declarative queries
// with local and dotted indirect fields, and transactional multi-object
// writes.
package fbnet

import (
	"fmt"
	"net/netip"
	"strings"

	"github.com/robotron-net/robotron/internal/relstore"
)

// Group partitions models into Desired (engineer-maintained design intent)
// and Derived (collected operational state).
type Group int

const (
	Desired Group = iota
	Derived
)

func (g Group) String() string {
	if g == Derived {
		return "Derived"
	}
	return "Desired"
}

// FieldKind distinguishes value fields from relationship fields.
type FieldKind int

const (
	ValueField    FieldKind = iota
	RelationField           // typed reference to another model's object
)

// Field declares one model attribute.
type Field struct {
	Name string
	Kind FieldKind

	// Value field properties.
	Type     relstore.ColType
	Nullable bool
	Unique   bool
	// Indexed declares a non-unique secondary index on the field, so the
	// query planner answers Eq/In lookups on it from the index instead of
	// scanning the whole table (role, drain_state, status-style fields).
	Indexed  bool
	Validate func(v any) error

	// Relation field properties.
	Target   string // target model name
	OnDelete relstore.FKAction
	// ReverseName is the name of the reverse connection created on the
	// target model (Django's related_name). Defaults to the plural
	// lower-case source model name; must be set explicitly when one model
	// has several relations to the same target.
	ReverseName string
}

// Model is the schema of one FBNet object type.
type Model struct {
	Name   string
	Group  Group
	Doc    string
	Fields []Field
}

// Field returns the declared field with the given name.
func (m *Model) Field(name string) (*Field, bool) {
	for i := range m.Fields {
		if m.Fields[i].Name == name {
			return &m.Fields[i], true
		}
	}
	return nil, false
}

// reverse describes an incoming relation: source model + field pointing
// at this model.
type reverse struct {
	name  string // reverse connection name exposed on the target model
	model string // source model
	field string // source field
}

// ComputedField derives an attribute from an object on the fly rather
// than storing it: "some attributes are not directly stored in FBNet.
// Instead, they are generated systematically on the fly. The derivation
// logic may change as our understanding of the use cases matures" — the
// paper's asset_url example (§6.1).
type ComputedField func(o Object) any

// Registry holds the registered models and their computed reverse
// connections.
type Registry struct {
	models   map[string]*Model
	order    []string
	reverses map[string][]reverse                // target model -> incoming relations
	computed map[string]map[string]ComputedField // model -> field -> derivation
}

// NewRegistry returns an empty model registry.
func NewRegistry() *Registry {
	return &Registry{
		models:   make(map[string]*Model),
		reverses: make(map[string][]reverse),
		computed: make(map[string]map[string]ComputedField),
	}
}

// RegisterComputed installs (or replaces — derivation logic evolves) an
// on-the-fly field on a model. Computed fields are readable through the
// read API like value fields but never stored. A query evaluates fn with
// its read epoch pinned and hands it the stored row: fn must not call back
// into the store.
func (r *Registry) RegisterComputed(model, name string, fn ComputedField) error {
	m, ok := r.models[model]
	if !ok {
		return fmt.Errorf("fbnet: unknown model %q", model)
	}
	if _, clash := m.Field(name); clash {
		return fmt.Errorf("fbnet: computed field %q collides with a stored field on %s", name, model)
	}
	for _, rv := range r.reverses[model] {
		if rv.name == name {
			return fmt.Errorf("fbnet: computed field %q collides with a reverse connection on %s", name, model)
		}
	}
	if r.computed[model] == nil {
		r.computed[model] = make(map[string]ComputedField)
	}
	r.computed[model][name] = fn
	return nil
}

// Computed returns the derivation for a model's computed field, if any.
func (r *Registry) Computed(model, name string) (ComputedField, bool) {
	fn, ok := r.computed[model][name]
	return fn, ok
}

// Register adds a model. Relation targets must already be registered
// (self-references allowed), enforcing an explicit dependency order just
// as SQL foreign keys do.
func (r *Registry) Register(m Model) error {
	if m.Name == "" {
		return fmt.Errorf("fbnet: model name must not be empty")
	}
	if _, dup := r.models[m.Name]; dup {
		return fmt.Errorf("fbnet: model %q already registered", m.Name)
	}
	seen := map[string]bool{"id": true}
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Name == "" {
			return fmt.Errorf("fbnet: model %s: empty field name", m.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("fbnet: model %s: duplicate field %q", m.Name, f.Name)
		}
		seen[f.Name] = true
		if f.Kind == RelationField {
			if f.Target != m.Name {
				if _, ok := r.models[f.Target]; !ok {
					return fmt.Errorf("fbnet: model %s: field %s references unregistered model %q", m.Name, f.Name, f.Target)
				}
			}
			if f.ReverseName == "" {
				f.ReverseName = defaultReverseName(m.Name)
			}
		}
	}
	// Validate reverse-name uniqueness on each target.
	for _, f := range m.Fields {
		if f.Kind != RelationField {
			continue
		}
		target := r.models[f.Target]
		if f.Target == m.Name {
			target = &m
		}
		for _, rv := range r.reverses[f.Target] {
			if rv.name == f.ReverseName {
				return fmt.Errorf("fbnet: model %s: reverse name %q already used on %s (by %s.%s); set ReverseName explicitly",
					m.Name, f.ReverseName, f.Target, rv.model, rv.field)
			}
		}
		if _, clash := target.Field(f.ReverseName); clash {
			return fmt.Errorf("fbnet: model %s: reverse name %q collides with a field on %s", m.Name, f.ReverseName, f.Target)
		}
		r.reverses[f.Target] = append(r.reverses[f.Target], reverse{name: f.ReverseName, model: m.Name, field: f.Name})
	}
	cp := m
	cp.Fields = append([]Field(nil), m.Fields...)
	r.models[m.Name] = &cp
	r.order = append(r.order, m.Name)
	return nil
}

// MustRegister is Register that panics, for the static catalog.
func (r *Registry) MustRegister(m Model) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Model returns a registered model by name.
func (r *Registry) Model(name string) (*Model, bool) {
	m, ok := r.models[name]
	return m, ok
}

// Models returns all model names in registration order.
func (r *Registry) Models() []string {
	return append([]string(nil), r.order...)
}

// ModelsInGroup returns the names of models in one group, in registration
// order.
func (r *Registry) ModelsInGroup(g Group) []string {
	var out []string
	for _, n := range r.order {
		if r.models[n].Group == g {
			out = append(out, n)
		}
	}
	return out
}

// Reverses returns the incoming relations of a model.
func (r *Registry) Reverses(name string) []reverse {
	return r.reverses[name]
}

// RelatedModels returns the distinct models associated with the named
// model, via outgoing relationship fields or incoming reverse connections.
// This is the quantity plotted in the paper's Figure 13.
func (r *Registry) RelatedModels(name string) []string {
	m, ok := r.models[name]
	if !ok {
		return nil
	}
	set := map[string]bool{}
	for _, f := range m.Fields {
		if f.Kind == RelationField && f.Target != name {
			set[f.Target] = true
		}
	}
	for _, rv := range r.reverses[name] {
		if rv.model != name {
			set[rv.model] = true
		}
	}
	out := make([]string, 0, len(set))
	for _, n := range r.order {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// defaultReverseName derives a reverse connection name from a source model
// name: PhysicalInterface -> physical_interfaces.
func defaultReverseName(model string) string {
	snake := toSnake(model)
	if strings.HasSuffix(snake, "s") || strings.HasSuffix(snake, "x") {
		return snake + "es"
	}
	if strings.HasSuffix(snake, "y") {
		return snake[:len(snake)-1] + "ies"
	}
	return snake + "s"
}

// toSnake converts CamelCase to snake_case, keeping digit groups attached:
// BgpV6Session -> bgp_v6_session.
func toSnake(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			if i > 0 && (s[i-1] < 'A' || s[i-1] > 'Z') && s[i-1] != '_' {
				b.WriteByte('_')
			}
			b.WriteByte(c + 'a' - 'A')
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// --- common field validators ---

// ValidateV6Prefix rejects values that are not valid IPv6 prefixes
// (the paper's V6PrefixField, Fig. 6).
func ValidateV6Prefix(v any) error {
	s, _ := v.(string)
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return fmt.Errorf("%q is not an IP prefix", s)
	}
	if !p.Addr().Is6() || p.Addr().Is4In6() {
		return fmt.Errorf("%q is not an IPv6 prefix", s)
	}
	return nil
}

// ValidateV4Prefix rejects values that are not valid IPv4 prefixes.
func ValidateV4Prefix(v any) error {
	s, _ := v.(string)
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return fmt.Errorf("%q is not an IP prefix", s)
	}
	if !p.Addr().Is4() {
		return fmt.Errorf("%q is not an IPv4 prefix", s)
	}
	return nil
}

// ValidateIPAddr rejects values that are not bare IP addresses (v4 or v6).
func ValidateIPAddr(v any) error {
	s, _ := v.(string)
	if _, err := netip.ParseAddr(s); err != nil {
		return fmt.Errorf("%q is not an IP address", s)
	}
	return nil
}

// ValidateNonEmpty rejects empty strings.
func ValidateNonEmpty(v any) error {
	if s, _ := v.(string); s == "" {
		return fmt.Errorf("must not be empty")
	}
	return nil
}

// ValidateOneOf returns a validator accepting only the listed strings.
func ValidateOneOf(allowed ...string) func(any) error {
	set := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		set[a] = true
	}
	return func(v any) error {
		s, _ := v.(string)
		if !set[s] {
			return fmt.Errorf("%q is not one of %s", s, strings.Join(allowed, ", "))
		}
		return nil
	}
}
