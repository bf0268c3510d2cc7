package table

import (
	"fmt"
	"sort"

	"just/internal/exec"
	"just/internal/geom"
)

// PluginSpec predefines the storage schema and default indexes of a data
// structure (Section IV-D, plugin tables): users "CREATE TABLE t AS
// trajectory" and get the whole layout for free. Rows of a plugin table
// are complete entities; the implicit `item` pseudo-field denotes the
// whole row for 1-N analysis operations.
type PluginSpec struct {
	Name    string
	Columns []Column
	Indexes []IndexDesc
	// FidColumn etc. mirror Desc's field roles.
	FidColumn     string
	GeomColumn    string
	TimeColumn    string
	EndTimeColumn string
}

var plugins = map[string]PluginSpec{}

// RegisterPlugin installs a plugin spec; built-ins register at init.
func RegisterPlugin(p PluginSpec) { plugins[p.Name] = p }

// LookupPlugin resolves a plugin type name.
func LookupPlugin(name string) (PluginSpec, bool) {
	p, ok := plugins[name]
	return p, ok
}

// PluginNames lists registered plugin types.
func PluginNames() []string {
	out := make([]string, 0, len(plugins))
	for n := range plugins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Trajectory column names of the built-in "trajectory" plugin (Fig. 6:
// MBR, start/end points, start/end times, and a compressed GPS list).
const (
	TrajColID         = "tid"
	TrajColMBR        = "mbr"
	TrajColStartPoint = "start_point"
	TrajColEndPoint   = "end_point"
	TrajColStartTime  = "start_time"
	TrajColEndTime    = "end_time"
	TrajColGPSList    = "gps_list"
)

func init() {
	RegisterPlugin(PluginSpec{
		Name: "trajectory",
		Columns: []Column{
			{Name: TrajColID, Type: exec.TypeString, PrimaryKey: true},
			{Name: TrajColMBR, Type: exec.TypeGeometry, SRID: 4326},
			{Name: TrajColStartPoint, Type: exec.TypeGeometry, SRID: 4326},
			{Name: TrajColEndPoint, Type: exec.TypeGeometry, SRID: 4326},
			{Name: TrajColStartTime, Type: exec.TypeTime},
			{Name: TrajColEndTime, Type: exec.TypeTime},
			{Name: TrajColGPSList, Type: exec.TypeSTSeries, Compress: "lz4"},
		},
		// Table III: XZ2 on MBR, XZ2T on MBR and start time.
		Indexes: []IndexDesc{
			{Strategy: "attr", ID: 0},
			{Strategy: "xz2", ID: 1},
			{Strategy: "xz2t", ID: 2},
		},
		FidColumn:     TrajColID,
		GeomColumn:    TrajColMBR,
		TimeColumn:    TrajColStartTime,
		EndTimeColumn: TrajColEndTime,
	})
}

// Trajectory is the native Go view of a trajectory-plugin row.
type Trajectory struct {
	ID     string
	Points []geom.TPoint
}

// MBR returns the trajectory's spatial footprint.
func (t *Trajectory) MBR() geom.MBR {
	if len(t.Points) == 0 {
		return geom.MBR{}
	}
	m := t.Points[0].Point.MBR()
	for _, p := range t.Points[1:] {
		m = m.ExtendPoint(p.Point)
	}
	return m
}

// Row converts the trajectory to a trajectory-plugin row.
func (t *Trajectory) Row() (exec.Row, error) {
	if len(t.Points) == 0 {
		return nil, fmt.Errorf("table: trajectory %q has no points", t.ID)
	}
	mbr := t.MBR()
	return exec.Row{
		t.ID,
		geom.PolygonFromMBR(mbr),
		t.Points[0].Point,
		t.Points[len(t.Points)-1].Point,
		t.Points[0].T,
		t.Points[len(t.Points)-1].T,
		t.Points,
	}, nil
}

// TrajectoryFromRow rebuilds a Trajectory from a plugin row (the `item`
// implicit field materialized).
func TrajectoryFromRow(row exec.Row) (*Trajectory, error) {
	if len(row) < 7 {
		return nil, fmt.Errorf("table: not a trajectory row (arity %d)", len(row))
	}
	id, ok := row[0].(string)
	if !ok {
		return nil, fmt.Errorf("table: trajectory id is %T", row[0])
	}
	pts, ok := row[6].([]geom.TPoint)
	if !ok {
		return nil, fmt.Errorf("table: gps_list is %T", row[6])
	}
	return &Trajectory{ID: id, Points: pts}, nil
}

// NewDescFromPlugin instantiates a catalog descriptor for a plugin table.
func NewDescFromPlugin(user, name, plugin string) (*Desc, error) {
	spec, ok := LookupPlugin(plugin)
	if !ok {
		return nil, fmt.Errorf("table: unknown plugin type %q (have %v)", plugin, PluginNames())
	}
	return &Desc{
		Name:          name,
		User:          user,
		Kind:          KindPlugin,
		Plugin:        plugin,
		Columns:       append([]Column{}, spec.Columns...),
		Indexes:       append([]IndexDesc{}, spec.Indexes...),
		FidColumn:     spec.FidColumn,
		GeomColumn:    spec.GeomColumn,
		TimeColumn:    spec.TimeColumn,
		EndTimeColumn: spec.EndTimeColumn,
	}, nil
}
