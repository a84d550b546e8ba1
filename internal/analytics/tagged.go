package analytics

// Tagged-frame file codec. A `.tflows` file is the flagged wire framing
// laid down on disk: a sequence of self-describing frames (flag byte,
// record, optional appendices), no header and no count. flowgen writes
// multi-tenant captures in this form and `graphctl send` replays them
// with each record's tag intact, so the noisy-neighbor scenario is
// drivable entirely from the CLI against the same decoder the server
// trusts.

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/trace"
)

// AppendTagged appends one tagged frame for rec to buf. tenant "" emits
// an untagged (plain) frame.
func AppendTagged(buf []byte, rec flowlog.Record, tenant string) []byte {
	return appendTaggedFrame(buf, rec, trace.Context{}, tenant)
}

// ReadTagged decodes a tagged-frame stream until EOF, returning the
// records and their parallel tenant tags ("" where a frame was
// untagged). EOF is only clean on a frame boundary.
func ReadTagged(r io.Reader) ([]flowlog.Record, []string, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var (
		recs    []flowlog.Record
		tenants []string
		sc      connScratch
	)
	for i := 0; ; i++ {
		if _, err := br.Peek(1); err == io.EOF {
			return recs, tenants, nil
		}
		batch, _, runs, err := readBatchFlagged(br, 1, &sc)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, nil, fmt.Errorf("frame %d: truncated tagged stream", i)
			}
			return nil, nil, fmt.Errorf("frame %d: %w", i, err)
		}
		recs = append(recs, batch[0])
		tenants = append(tenants, runs[0].name)
	}
}
