package repro.mpi

/** Simulated-cluster topology and wire-cost model (substitute for the
  * paper's 8-machine QDR InfiniBand cluster, Table 2).
  *
  * Ranks are grouped into "machines" of `ranksPerMachine`; puts whose
  * source and target rank live on different machines are charged
  * `bytes / crossBytesPerSec + msgLatencyNanos` of simulated wire time,
  * which the runtime parks off at the next fence. Intra-machine puts are
  * plain shared-memory copies (free), mirroring how MPI implementations
  * short-circuit local ranks.
  */
final case class NetConfig(
    ranksPerMachine: Int = 1,
    crossBytesPerSec: Long = 3_000_000_000L, // ~QDR IB effective per-machine bandwidth
    msgLatencyNanos: Long = 1_500,
) {
  require(ranksPerMachine >= 1)
  def machineOf(rank: Int): Int = rank / ranksPerMachine
}

/** Per-rank transfer counters (single-writer: the owning rank thread). */
final class NetStats {
  var bytesCross: Long = 0
  var bytesLocal: Long = 0
  var msgs: Long = 0
  var simulatedWireNanos: Long = 0
}
