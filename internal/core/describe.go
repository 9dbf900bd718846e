package core

import "encoding/json"

// Description is a serializable snapshot of an adapted plan, for tooling
// (winrs-info -json) and experiment logging.
type Description struct {
	Layer struct {
		N, IH, IW, FH, FW, IC, OC, PH, PW int
		OH, OW                            int
		Groups                            int `json:",omitempty"`
		DirectGFLOPs                      float64
		DataMB                            float64
	} `json:"layer"`
	FP16       bool   `json:"fp16"`
	KernelPair string `json:"kernelPair"`
	Fast       struct {
		Name  string  `json:"name"`
		N     int     `json:"n"`
		R     int     `json:"r"`
		Alpha int     `json:"alpha"`
		Accel float64 `json:"accel"`
	} `json:"fast"`
	FastColumns     int     `json:"fastColumns"`
	ResidualColumns int     `json:"residualColumns"`
	SegmentTarget   int     `json:"segmentTarget"`
	SegmentHeight   int     `json:"segmentHeight"`
	SegmentWidth    int     `json:"segmentWidth"`
	Segments        int     `json:"segments"`
	WorkspaceBytes  int64   `json:"workspaceBytes"`
	WorkspaceRatio  float64 `json:"workspaceRatio"`
	// Grouped-dispatch attribution (grouped plans only): the budgeted
	// staging-slot ring depth and one slot's per-group arena —
	// WorkspaceBytes is WorkspaceSeqBytes × GroupRing. Depthwise plans
	// run channel-wide with no slots: ring 1, one arena of the whole ∇W.
	GroupRing         int     `json:"groupRing,omitempty"`
	WorkspaceSeqBytes int64   `json:"workspaceSeqBytes,omitempty"`
	WHatCacheBytes    int64   `json:"wHatCacheBytes"`
	WHatCacheRatio    float64 `json:"wHatCacheRatio"`
	TotalBlocks       int     `json:"totalBlocks"`
	// EWMKernel is the chunk kernel the plan's dense units resolve to
	// ("block4x4" or "avx2"), or "diag" for a depthwise plan's
	// channel-wide units.
	EWMKernel string `json:"ewmKernel"`
}

// Describe summarizes the configuration.
func (c *Config) Describe() Description {
	var d Description
	p := c.Params
	d.Layer.N, d.Layer.IH, d.Layer.IW = p.N, p.IH, p.IW
	d.Layer.FH, d.Layer.FW = p.FH, p.FW
	d.Layer.IC, d.Layer.OC = p.IC, p.OC
	d.Layer.PH, d.Layer.PW = p.PH, p.PW
	d.Layer.OH, d.Layer.OW = p.OH(), p.OW()
	if p.G() > 1 {
		d.Layer.Groups = p.G()
		d.GroupRing = c.GroupRing()
		d.WorkspaceSeqBytes = c.WorkspaceSeqBytes()
	}
	d.Layer.DirectGFLOPs = float64(p.FLOPs()) / 1e9
	d.Layer.DataMB = float64(p.DataBytes32()) / (1 << 20)
	d.FP16 = c.FP16
	d.KernelPair = c.Pair.String()
	d.Fast.Name = c.Pair.Fast.String()
	d.Fast.N, d.Fast.R, d.Fast.Alpha = c.Pair.Fast.N, c.Pair.Fast.R, c.Pair.Fast.Alpha
	d.Fast.Accel = c.Pair.Fast.Accel()
	d.FastColumns, d.ResidualColumns = c.Pair.Coverage()
	d.SegmentTarget = c.ZTarget
	d.SegmentHeight, d.SegmentWidth = c.SegH, c.SegW
	d.Segments = c.Z()
	d.WorkspaceBytes = c.WorkspaceBytes()
	d.WHatCacheBytes = c.WHatCacheBytes()
	if data := p.DataBytes32(); data > 0 {
		d.WorkspaceRatio = float64(c.WorkspaceBytes()) / float64(data)
		d.WHatCacheRatio = float64(c.WHatCacheBytes()) / float64(data)
	}
	// Grouped plans count the per-group block grid once per group.
	e := c
	if c.group != nil {
		e = c.group
	}
	for _, s := range e.Segments {
		d.TotalBlocks += BlocksPerSegment(s.K, e.Params, c.FP16) * p.G()
	}
	d.EWMKernel = c.EWMKernel()
	return d
}

// MarshalJSON serializes the configuration snapshot.
func (c *Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Describe())
}
