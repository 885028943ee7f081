package trace

// IngestRequest is the wire form of a cross-process span shipment:
// galleryserve POSTs this to galleryd's /v1/debug/traces so the spans of
// one request, opened in two processes, land in a single buffer.
type IngestRequest struct {
	Spans []SpanData `json:"spans"`
}
