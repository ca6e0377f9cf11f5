package store

import (
	"encoding/binary"
	"fmt"
	"os"

	"xmlviews/internal/xmltree"
)

// DocMagic identifies the persisted source document that makes a store
// updatable.
const (
	DocMagic   = "XVDC"
	DocVersion = 1
)

// EncodeDocument serializes a whole document with the segment tree codec
// (labels and values dictionary-compressed, conforming Dewey IDs derived
// rather than stored), wrapped in a CRC-checked block.
func EncodeDocument(doc *xmltree.Document) []byte {
	var out []byte
	out = append(out, DocMagic...)
	out = binary.LittleEndian.AppendUint16(out, DocVersion)
	var payload []byte
	payload = appendString(payload, doc.Name)
	payload = encodeTree(payload, doc.Root)
	return appendBlock(out, payload)
}

// DecodeDocument parses document bytes produced by EncodeDocument.
func DecodeDocument(data []byte) (*xmltree.Document, error) {
	rd := &reader{data: data}
	if string(rd.bytes(len(DocMagic))) != DocMagic {
		if rd.err != nil {
			return nil, rd.err
		}
		return nil, fmt.Errorf("store: bad magic (not a document segment)")
	}
	if ver := rd.u16(); rd.err == nil && ver != DocVersion {
		return nil, fmt.Errorf("store: unsupported document version %d (want %d)", ver, DocVersion)
	}
	blk := rd.block()
	name := blk.string()
	root, err := decodeTree(blk)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("store: document segment with no root")
	}
	return &xmltree.Document{Root: root, Name: name}, nil
}

// WriteDocumentFile atomically persists the document segment.
func WriteDocumentFile(path string, doc *xmltree.Document) (int64, error) {
	data := EncodeDocument(doc)
	if err := writeFileAtomic(path, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// ReadDocumentFile loads and verifies a document segment.
func ReadDocumentFile(path string) (*xmltree.Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := DecodeDocument(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}
