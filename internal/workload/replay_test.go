package workload

import (
	"duet/internal/cluster"
	"duet/internal/sim"
)

// drawArrivals materializes cfg's arrival stream (defaults applied) from
// ArrivalSource, so a test or benchmark can draw it once, outside what it
// measures, and replay it.
func drawArrivals(cfg ServeConfig) []cluster.Arrival {
	src := NewArrivalSource(cfg)
	stream := make([]cluster.Arrival, 0, src.Len())
	var a cluster.Arrival
	for src.Next(&a) {
		stream = append(stream, a)
	}
	return stream
}

// replaySource is a cluster.Source over a pre-drawn stream.
type replaySource struct {
	stream []cluster.Arrival
	i      int
}

func (s *replaySource) Next(a *cluster.Arrival) bool {
	if s.i >= len(s.stream) {
		return false
	}
	*a = s.stream[s.i]
	s.i++
	return true
}

func (s *replaySource) Len() int { return len(s.stream) }

func (s *replaySource) Clone() cluster.Source { return &replaySource{stream: s.stream} }

// serveClusterReplay is ServeCluster over a pre-drawn stream: the window
// width comes from the stream's last arrival instead of
// ArrivalSource.Span. Replicas copy each arrival, so the stream is left
// untouched and may be replayed.
func serveClusterReplay(cfg ClusterConfig, stream []cluster.Arrival) (ClusterResult, error) {
	cfg = cfg.normalized()
	var width sim.Time
	if cfg.Windows > 0 && len(stream) > 0 {
		width = spanWidth(stream[len(stream)-1].At, cfg.Windows)
	}
	res, err := cluster.RunSource(cfg.clusterConfig(width), &replaySource{stream: stream})
	if err != nil {
		return ClusterResult{}, err
	}
	return cfg.result(res), nil
}
