package cluster

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"

	"vedliot/internal/tee"
)

// replicaImage builds the deterministic enclave code/data image for a
// replica: the artifact content digest, the backend it was lowered
// for, and the module hosting it. Hashing this image (the tee package
// does; a verifier does independently) yields the replica measurement,
// so the attested identity covers exactly what the release policy
// authorized — swap any of the three and the quote stops matching.
func replicaImage(digest, backend, module string) []byte {
	return []byte("vedliot-replica/v1\n" + digest + "\n" + backend + "\n" + module + "\n")
}

// ReplicaAttestation is one replica's signed identity statement: a
// quote over its enclave measurement, with the running artifact digest
// as report data, bound to the verifier's challenge nonce.
type ReplicaAttestation struct {
	// Replica is the replica's index within its deployment.
	Replica int
	// Slot is the chassis slot the replica is bound to.
	Slot int
	// Module names the compute module hosting the replica.
	Module string
	// Backend names the inference backend the replica serves with.
	Backend string
	// ArtifactDigest is the content digest of the artifact the replica
	// claims to run; it is also the quote's report data.
	ArtifactDigest string
	// Quote is the platform-signed attestation statement.
	Quote tee.Quote
	// EcallOverheadNS is the enclave's accounted transition overhead at
	// quoting time, surfaced so serving telemetry can report the cost of
	// running attested.
	EcallOverheadNS int64
}

// Attest produces one attestation per replica for the verifier's
// challenge nonce, quoting each replica's enclave with the running
// artifact digest as report data. Quote generation itself runs as an
// ecall — entering the enclave is what makes the measurement
// trustworthy, and the transition cost is accounted like any other.
func (d *Deployment) Attest(nonce []byte, platformKey ed25519.PrivateKey) ([]ReplicaAttestation, error) {
	out := make([]ReplicaAttestation, 0, len(d.replicas))
	for _, r := range d.replicas {
		var q tee.Quote
		report := []byte(d.digest)
		err := r.enclave.Ecall(int64(len(nonce)+len(report)), func() error {
			q = r.enclave.GenerateQuote(nonce, report, platformKey)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ReplicaAttestation{
			Replica:         r.id,
			Slot:            r.slot,
			Module:          r.module,
			Backend:         r.Backend(),
			ArtifactDigest:  d.digest,
			Quote:           q,
			EcallOverheadNS: r.enclave.OverheadNS(),
		})
	}
	return out, nil
}

// VerifyReplicaAttestation checks one replica's quote: the measurement
// must equal the hash of the independently rebuilt replica image for
// the expected digest on the claimed backend and module, the report data
// must carry that digest, and the signature must verify against the
// platform key under the challenge nonce. Passing means the replica is
// provably running the artifact the release policy authorized.
func VerifyReplicaAttestation(a ReplicaAttestation, platformPub ed25519.PublicKey, wantDigest string, nonce []byte) error {
	if a.ArtifactDigest != wantDigest {
		return fmt.Errorf("cluster: replica %d attests digest %s, want %s", a.Replica, a.ArtifactDigest, wantDigest)
	}
	if string(a.Quote.ReportData) != wantDigest {
		return fmt.Errorf("cluster: replica %d quote report data does not carry the artifact digest", a.Replica)
	}
	expected := sha256.Sum256(replicaImage(wantDigest, a.Backend, a.Module))
	if err := tee.VerifyQuote(a.Quote, platformPub, expected, nonce); err != nil {
		return fmt.Errorf("cluster: replica %d: %w", a.Replica, err)
	}
	return nil
}
