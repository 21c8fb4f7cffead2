package perfbench.trace

import repro.core.{MotivoLocalTable, ShapeSampling}
import repro.graph.LocalGraph
import repro.graphlet.{Graphlet, SpanningTrees}
import scala.collection.mutable
import scala.util.Random

/** Totals over every batch one or more [[TracedSampler]]s drew. */
final class SampleStats {
  var samples = 0L
  var treeletNs = 0L
  var canonicalNs = 0L
  var sigmaNs = 0L
  var sigmaCalls = 0L
  val rawCodes: mutable.HashSet[Long] = mutable.HashSet.empty
  val codes: mutable.HashSet[Long] = mutable.HashSet.empty
}

/** `Motivo.LocalShapeSampler` with the sample split at its layer
  * boundaries: `sampleTreeletCopy` (sampler), then `LocalGraph.inducedAdj`
  * + `Graphlet.canonical` (graphlet canonical form). It draws the same
  * codes as `LocalShapeSampler` for the same table state and seed.
  *
  * Each `sampleBatch` call is one span, named `batchSpan`, whose counters
  * hold the per-sample times summed over the batch. With `sigma = true`,
  * `SpanningTrees.sigmaByShape` is called for each code the sampler has not
  * seen before, before the batch is handed back to AGS, so σ time is
  * recorded here rather than inside AGS's control loop.
  */
final class TracedSampler(val table: MotivoLocalTable, seed: Long, tracer: Tracer,
                          stats: SampleStats, batchSpan: String, sigma: Boolean)
    extends ShapeSampling {
  private val rnd = new Random(seed)
  private val seen = mutable.HashSet.empty[Long]
  val k: Int = table.k
  var batches = 0
  var shapeSwitches = 0
  private var lastShape: Option[Option[Int]] = None

  def totalsByShape: Map[Int, Double] = table.totalsByShape

  def sampleBatch(shape: Option[Int], b: Int): Seq[Long] = tracer.span(batchSpan) { span =>
    if (lastShape.exists(_ != shape)) shapeSwitches += 1
    lastShape = Some(shape)
    batches += 1
    val out = new Array[Long](b)
    var treeletNs = 0L
    var canonicalNs = 0L
    var i = 0
    while (i < b) {
      val t0 = System.nanoTime()
      val verts = table.sampleTreeletCopy(rnd, shape)
      val t1 = System.nanoTime()
      val adj = LocalGraph.inducedAdj(table.g, verts)
      val code = Graphlet.canonical(adj)
      val t2 = System.nanoTime()
      treeletNs += t1 - t0
      canonicalNs += t2 - t1
      stats.rawCodes += Graphlet.encode(adj)
      out(i) = code
      i += 1
    }
    var sigmaNs = 0L
    var sigmaCalls = 0
    for (code <- out if seen.add(code)) {
      stats.codes += code
      if (sigma) {
        val t0 = System.nanoTime()
        SpanningTrees.sigmaByShape(code, k)
        sigmaNs += System.nanoTime() - t0
        sigmaCalls += 1
      }
    }
    stats.samples += b
    stats.treeletNs += treeletNs
    stats.canonicalNs += canonicalNs
    stats.sigmaNs += sigmaNs
    stats.sigmaCalls += sigmaCalls
    span.attrs ++= Seq("samples" -> b, "treelet_s" -> treeletNs / 1e9,
                       "canonical_s" -> canonicalNs / 1e9, "sigma_s" -> sigmaNs / 1e9,
                       "sigma_calls" -> sigmaCalls)
    out.toSeq
  }
}
